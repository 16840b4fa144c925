// Package blockgrid implements BonnRoute's blockage grid for off-track
// wiring (paper §3.8): Algorithm 3 generates the candidate coordinates,
// and a path-preserving digraph — four direction-tagged copies of each
// grid vertex, with straight arcs between neighbors and post-bend arcs
// that jump at least τ — lets a plain Dijkstra find shortest rectilinear
// paths whose every segment has length at least τ (the minimum-segment-
// length abstraction of the same-net rules, §3.7), avoiding all obstacle
// interiors. By the theorem of Maßberg–Nieberg the grid contains an
// optimal τ-feasible path whenever one exists.
//
// Obstacles must be pre-inflated by the caller (wire half-width plus
// required spacing), as usual in gridless routing.
package blockgrid

import (
	"sort"
	"sync"

	"bonnroute/internal/geom"
)

// Coordinates runs Algorithm 3 on one axis: base holds the obstacle
// border coordinates plus the source/target coordinates; the result adds
// τ-spaced fill around every cluster of base coordinates closer than 4τ,
// extended 2τ beyond, clipped to span.
func Coordinates(base []int, tau int, span geom.Interval) []int {
	var s Searcher
	return s.coords(nil, base, tau, span)
}

// coords is Coordinates writing into dst, with the sorted base copy held
// in the searcher's scratch buffer so repeated searches don't reallocate.
func (s *Searcher) coords(dst []int, base []int, tau int, span geom.Interval) []int {
	dst = dst[:0]
	if tau <= 0 || span.Empty() {
		return dst
	}
	s.sortBuf = append(s.sortBuf[:0], base...)
	sort.Ints(s.sortBuf)
	sorted := dedup(s.sortBuf)

	add := func(x int) {
		if x >= span.Lo && x <= span.Hi {
			dst = append(dst, x)
		}
	}
	for _, x := range sorted {
		add(x)
	}
	for i, x := range sorted {
		// Cluster extent around i: extend while consecutive gaps < 4τ.
		lo, hi := i, i
		for lo > 0 && sorted[lo]-sorted[lo-1] < 4*tau {
			lo--
		}
		for hi+1 < len(sorted) && sorted[hi+1]-sorted[hi] < 4*tau {
			hi++
		}
		from, to := sorted[lo]-2*tau, sorted[hi]+2*tau
		// Anchor the τ-lattice at x (phases matter for optimality).
		start := x - ((x-from)/tau+1)*tau
		for p := start; p <= to; p += tau {
			if p >= from {
				add(p)
			}
		}
	}
	sort.Ints(dst)
	return dedup(dst)
}

func dedup(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Searcher owns the buffers of the τ-feasible path search — grid
// coordinates, Dijkstra state arrays, and the priority queue — so
// repeated searches (pin-access catalogues probe many endpoints per pin)
// reuse memory instead of rebuilding it per call. One Searcher serves one
// goroutine at a time.
//
// The Dijkstra state is epoch-stamped rather than cleared per search:
// mark[id] is 2·epoch once state id is reached in the current search and
// 2·epoch+1 once it is settled; dist and parent are read only behind a
// current mark.
type Searcher struct {
	g       bgraph
	sortBuf []int
	xbase   []int
	ybase   []int
	dist    []int
	parent  []int32
	mark    []uint32
	epoch   uint32
	pq      bheap
}

// maxEpoch is the last epoch whose settled mark 2·epoch+1 fits a uint32.
const maxEpoch = (1<<32 - 2) / 2

// NewSearcher returns an empty searcher; buffers grow on demand.
func NewSearcher() *Searcher { return &Searcher{} }

// searcherPool backs the package-level Search and GetSearcher so callers
// amortize buffer memory across calls.
var searcherPool = sync.Pool{New: func() interface{} { return NewSearcher() }}

// GetSearcher takes a searcher from the package pool. Return it with
// PutSearcher once no search on it is running.
func GetSearcher() *Searcher { return searcherPool.Get().(*Searcher) }

// PutSearcher returns a searcher taken with GetSearcher to the pool.
func PutSearcher(s *Searcher) { searcherPool.Put(s) }

// Search finds a shortest τ-feasible rectilinear path from s to t within
// bounds, avoiding the interiors of the obstacles. It returns the
// waypoints (including s and t) and the ℓ1 length. ok is false when no
// τ-feasible path exists on the blockage grid.
func Search(obstacles []geom.Rect, s, t geom.Point, tau int, bounds geom.Rect) (pts []geom.Point, length int, ok bool) {
	sr := GetSearcher()
	pts, length, ok = sr.Search(obstacles, s, t, tau, bounds)
	PutSearcher(sr)
	return pts, length, ok
}

// Search is the pooled-buffer form of the package-level Search.
func (s *Searcher) Search(obstacles []geom.Rect, from, to geom.Point, tau int, bounds geom.Rect) (pts []geom.Point, length int, ok bool) {
	if from == to {
		return []geom.Point{from}, 0, true
	}
	// Every arc at a point strictly inside an obstacle crosses that
	// obstacle's interior, so such an endpoint is unreachable: answer
	// without exhausting the grid. Border points stay reachable.
	for _, o := range obstacles {
		if strictlyInside(from, o) || strictlyInside(to, o) {
			return nil, 0, false
		}
	}
	return s.search(obstacles, from, to, tau, bounds)
}

// search runs the grid search proper, without the endpoint rejection.
func (s *Searcher) search(obstacles []geom.Rect, from, to geom.Point, tau int, bounds geom.Rect) (pts []geom.Point, length int, ok bool) {
	s.xbase = append(s.xbase[:0], from.X, to.X, bounds.XMin, bounds.XMax)
	s.ybase = append(s.ybase[:0], from.Y, to.Y, bounds.YMin, bounds.YMax)
	for _, o := range obstacles {
		s.xbase = append(s.xbase, o.XMin, o.XMax)
		s.ybase = append(s.ybase, o.YMin, o.YMax)
	}
	s.g.xs = s.coords(s.g.xs, s.xbase, tau, geom.Interval{Lo: bounds.XMin, Hi: bounds.XMax})
	s.g.ys = s.coords(s.g.ys, s.ybase, tau, geom.Interval{Lo: bounds.YMin, Hi: bounds.YMax})
	s.g.tau = tau
	s.g.obstacles = obstacles
	si, ok1 := s.g.vertexOf(from)
	ti, ok2 := s.g.vertexOf(to)
	if !ok1 || !ok2 {
		s.g.obstacles = nil
		return nil, 0, false
	}
	pts, length, ok = s.dijkstra(si, ti)
	s.g.obstacles = nil // don't retain caller memory in the pool
	return pts, length, ok
}

// Directions of travel.
const (
	dirNone = iota // at the source, no incoming direction
	dirE
	dirW
	dirN
	dirS
	numDirs
)

type bgraph struct {
	xs, ys    []int
	tau       int
	obstacles []geom.Rect
}

type bvertex struct {
	xi, yi int
}

func (g *bgraph) vertexOf(p geom.Point) (bvertex, bool) {
	xi := sort.SearchInts(g.xs, p.X)
	yi := sort.SearchInts(g.ys, p.Y)
	if xi >= len(g.xs) || g.xs[xi] != p.X || yi >= len(g.ys) || g.ys[yi] != p.Y {
		return bvertex{}, false
	}
	return bvertex{xi, yi}, true
}

// segmentFree reports whether the axis-parallel segment between grid
// points a and b avoids all obstacle interiors. Running exactly along an
// obstacle border is allowed (the obstacles arrive pre-inflated).
func (g *bgraph) segmentFree(ax, ay, bx, by int) bool {
	seg := geom.R(ax, ay, bx, by)
	for _, o := range g.obstacles {
		if !segAvoidsInterior(seg, o) {
			return false
		}
	}
	return true
}

func strictlyInside(p geom.Point, o geom.Rect) bool {
	return o.XMin < p.X && p.X < o.XMax && o.YMin < p.Y && p.Y < o.YMax
}

func segAvoidsInterior(seg, o geom.Rect) bool {
	if seg.YMin == seg.YMax { // horizontal (or degenerate point)
		if seg.YMin <= o.YMin || seg.YMin >= o.YMax {
			return true
		}
		return seg.XMax <= o.XMin || seg.XMin >= o.XMax
	}
	// Vertical.
	if seg.XMin <= o.XMin || seg.XMin >= o.XMax {
		return true
	}
	return seg.YMax <= o.YMin || seg.YMin >= o.YMax
}

type bstate struct {
	v   bvertex
	dir uint8
}

// sid maps a state to a dense index for the array-based Dijkstra.
func (g *bgraph) sid(st bstate) int {
	return (st.v.xi*len(g.ys)+st.v.yi)*int(numDirs) + int(st.dir)
}

// stateOf inverts sid.
func (g *bgraph) stateOf(id int) bstate {
	d := uint8(id % int(numDirs))
	id /= int(numDirs)
	return bstate{bvertex{id / len(g.ys), id % len(g.ys)}, d}
}

func (s *Searcher) dijkstra(from, to bvertex) ([]geom.Point, int, bool) {
	g := &s.g
	n := len(g.xs) * len(g.ys) * int(numDirs)
	if cap(s.dist) < n {
		s.dist = make([]int, n)
		s.parent = make([]int32, n)
		s.mark = make([]uint32, n)
	}
	if s.epoch == maxEpoch {
		clear(s.mark[:cap(s.mark)])
		s.epoch = 0
	}
	s.epoch++
	reached, settled := 2*s.epoch, 2*s.epoch+1
	dist, parent, mark := s.dist[:n], s.parent[:n], s.mark[:n]
	pq := s.pq[:0]
	relax := func(st bstate, d int, fromID int32) {
		id := g.sid(st)
		if mark[id] >= reached && dist[id] <= d {
			return
		}
		mark[id] = reached
		dist[id] = d
		parent[id] = fromID
		pq.push(bitem{d, int32(id)})
	}
	relax(bstate{from, dirNone}, 0, -1)

	for len(pq) > 0 {
		it := pq.pop()
		id := int(it.id)
		if mark[id] == settled || it.d > dist[id] {
			continue
		}
		mark[id] = settled
		st := g.stateOf(id)
		if st.v == to {
			s.pq = pq[:0]
			return s.path(int32(id)), it.d, true
		}
		g.neighbors(st, func(nb bstate, cost int) {
			relax(nb, it.d+cost, int32(id))
		})
	}
	s.pq = pq[:0]
	return nil, 0, false
}

// path reconstructs the waypoints ending at state id from the parent
// links, dropping repeated points, into one exactly sized slice.
func (s *Searcher) path(id int32) []geom.Point {
	g := &s.g
	at := func(cur int32) geom.Point {
		cs := g.stateOf(int(cur))
		return geom.Pt(g.xs[cs.v.xi], g.ys[cs.v.yi])
	}
	n := 0
	for cur, last := id, (geom.Point{}); cur >= 0; cur = s.parent[cur] {
		if p := at(cur); n == 0 || p != last {
			n++
			last = p
		}
	}
	pts := make([]geom.Point, n)
	i := n
	for cur := id; cur >= 0; cur = s.parent[cur] {
		if p := at(cur); i == n || p != pts[i] {
			i--
			pts[i] = p
		}
	}
	return pts
}

// neighbors enumerates arcs: straight continuation to the adjacent grid
// coordinate, and — from a bend (or the source) — jumps of length ≥ τ in
// each perpendicular (resp. every) direction.
func (g *bgraph) neighbors(st bstate, visit func(nb bstate, cost int)) {
	x, y := g.xs[st.v.xi], g.ys[st.v.yi]

	straight := func(dir uint8) {
		switch dir {
		case dirE:
			if st.v.xi+1 < len(g.xs) {
				nx := g.xs[st.v.xi+1]
				if g.segmentFree(x, y, nx, y) {
					visit(bstate{bvertex{st.v.xi + 1, st.v.yi}, dirE}, nx-x)
				}
			}
		case dirW:
			if st.v.xi > 0 {
				nx := g.xs[st.v.xi-1]
				if g.segmentFree(nx, y, x, y) {
					visit(bstate{bvertex{st.v.xi - 1, st.v.yi}, dirW}, x-nx)
				}
			}
		case dirN:
			if st.v.yi+1 < len(g.ys) {
				ny := g.ys[st.v.yi+1]
				if g.segmentFree(x, y, x, ny) {
					visit(bstate{bvertex{st.v.xi, st.v.yi + 1}, dirN}, ny-y)
				}
			}
		case dirS:
			if st.v.yi > 0 {
				ny := g.ys[st.v.yi-1]
				if g.segmentFree(x, ny, x, y) {
					visit(bstate{bvertex{st.v.xi, st.v.yi - 1}, dirS}, y-ny)
				}
			}
		}
	}

	// jump emits the post-bend arc: the nearest vertex at distance ≥ τ.
	jump := func(dir uint8) {
		switch dir {
		case dirE:
			for xi := st.v.xi + 1; xi < len(g.xs); xi++ {
				if g.xs[xi]-x >= g.tau {
					if g.segmentFree(x, y, g.xs[xi], y) {
						visit(bstate{bvertex{xi, st.v.yi}, dirE}, g.xs[xi]-x)
					}
					return
				}
			}
		case dirW:
			for xi := st.v.xi - 1; xi >= 0; xi-- {
				if x-g.xs[xi] >= g.tau {
					if g.segmentFree(g.xs[xi], y, x, y) {
						visit(bstate{bvertex{xi, st.v.yi}, dirW}, x-g.xs[xi])
					}
					return
				}
			}
		case dirN:
			for yi := st.v.yi + 1; yi < len(g.ys); yi++ {
				if g.ys[yi]-y >= g.tau {
					if g.segmentFree(x, y, x, g.ys[yi]) {
						visit(bstate{bvertex{st.v.xi, yi}, dirN}, g.ys[yi]-y)
					}
					return
				}
			}
		case dirS:
			for yi := st.v.yi - 1; yi >= 0; yi-- {
				if y-g.ys[yi] >= g.tau {
					if g.segmentFree(x, g.ys[yi], x, y) {
						visit(bstate{bvertex{st.v.xi, yi}, dirS}, y-g.ys[yi])
					}
					return
				}
			}
		}
	}

	switch st.dir {
	case dirNone:
		// First segment must also be ≥ τ.
		jump(dirE)
		jump(dirW)
		jump(dirN)
		jump(dirS)
	case dirE, dirW:
		straight(st.dir)
		jump(dirN)
		jump(dirS)
	case dirN, dirS:
		straight(st.dir)
		jump(dirE)
		jump(dirW)
	}
}

type bitem struct {
	d  int
	id int32
}

// bheap is a concrete-typed binary min-heap on d. The sift order matches
// container/heap's exactly (left child preferred on ties), so replacing
// the interface-based heap — which boxed one allocation per Push — left
// pop sequences, and therefore found paths, unchanged.
type bheap []bitem

func (h *bheap) push(it bitem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[i].d >= s[p].d {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *bheap) pop() bitem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s[l].d < s[m].d {
			m = l
		}
		if r < n && s[r].d < s[m].d {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// MergeCollinear merges consecutive waypoints that continue in the same
// signed direction into single segments (a segment is a maximal straight
// piece; waypoint lists may subdivide it).
func MergeCollinear(pts []geom.Point) []geom.Point {
	if len(pts) <= 2 {
		return pts
	}
	out := pts[:1:1]
	for i := 1; i < len(pts); i++ {
		p := pts[i]
		last := out[len(out)-1]
		if p == last {
			continue
		}
		if len(out) >= 2 {
			prev := out[len(out)-2]
			sameDir := (prev.X == last.X && last.X == p.X && sign(last.Y-prev.Y) == sign(p.Y-last.Y)) ||
				(prev.Y == last.Y && last.Y == p.Y && sign(last.X-prev.X) == sign(p.X-last.X))
			if sameDir {
				out[len(out)-1] = p
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// SegmentsOK verifies that every maximal segment of a rectilinear path
// has length ≥ τ and avoids obstacle interiors (the τ-feasibility audit
// used in tests and by pin access). Collinear waypoint runs are merged
// first.
func SegmentsOK(pts []geom.Point, tau int, obstacles []geom.Rect) bool {
	pts = MergeCollinear(pts)
	if len(pts) < 2 {
		return true
	}
	g := &bgraph{obstacles: obstacles}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.X != b.X && a.Y != b.Y {
			return false // not rectilinear
		}
		if a.Dist1(b) < tau {
			return false
		}
		if !g.segmentFree(min(a.X, b.X), min(a.Y, b.Y), max(a.X, b.X), max(a.Y, b.Y)) {
			return false
		}
	}
	return true
}
