package pathsearch

import (
	"math/rand"
	"testing"

	"bonnroute/internal/drc"
	"bonnroute/internal/geom"
	"bonnroute/internal/tracks"
)

// testWorld is a synthetic legality environment: a set of blocked rects
// per layer; wire positions are blocked when the vertex lies in a rect,
// jogs when either endpoint or the gap is blocked, vias when the point is
// blocked on either layer.
type testWorld struct {
	tg      *tracks.Graph
	blocked [][]geom.Rect // per layer
}

func newWorld(nLayers, pitch, size int) *testWorld {
	area := geom.R(0, 0, size, size)
	dirs := make([]geom.Direction, nLayers)
	coords := make([][]int, nLayers)
	for z := 0; z < nLayers; z++ {
		if z%2 == 0 {
			dirs[z] = geom.Horizontal
		} else {
			dirs[z] = geom.Vertical
		}
		for c := pitch / 2; c < size; c += pitch {
			coords[z] = append(coords[z], c)
		}
	}
	return &testWorld{
		tg:      tracks.BuildGraph(area, dirs, coords),
		blocked: make([][]geom.Rect, nLayers),
	}
}

func (w *testWorld) block(z int, r geom.Rect) { w.blocked[z] = append(w.blocked[z], r) }

func (w *testWorld) isBlocked(z, x, y int) bool {
	p := geom.Pt(x, y)
	for _, r := range w.blocked[z] {
		if r.ContainsClosed(p) {
			return true
		}
	}
	return false
}

func (w *testWorld) config(costs Costs, pi FutureCost, area *Area) *Config {
	return &Config{
		Tracks: w.tg,
		Costs:  costs,
		Pi:     pi,
		Area:   area,
		WireRuns: func(z, ti, lo, hi int, visit func(lo, hi int, need drc.Need)) {
			layer := &w.tg.Layers[z]
			c := layer.Coords[ti]
			// Emit blocked sub-runs of [lo, hi] (treating the wire as the
			// point vertex; the synthetic world has no widths).
			for _, r := range w.blocked[z] {
				o := r.Span(layer.Dir.Perp())
				if c < o.Lo || c > o.Hi {
					continue
				}
				s := r.Span(layer.Dir)
				a, b := max(s.Lo, lo), min(s.Hi, hi+1)
				if a < b {
					visit(a, b, drc.NeedNever)
				} else if a == b && a >= lo && a <= hi {
					visit(a, a+1, drc.NeedNever)
				}
			}
		},
		JogNeed: func(z, lowerTi, along int) drc.Need {
			layer := &w.tg.Layers[z]
			c0, c1 := layer.Coords[lowerTi], layer.Coords[lowerTi+1]
			for c := c0; c <= c1; c++ {
				var x, y int
				if layer.Dir == geom.Horizontal {
					x, y = along, c
				} else {
					x, y = c, along
				}
				if w.isBlocked(z, x, y) {
					return drc.NeedNever
				}
			}
			return 0
		},
		ViaNeed: func(v, botTi, topTi int, pos geom.Point) drc.Need {
			if w.isBlocked(v, pos.X, pos.Y) || w.isBlocked(v+1, pos.X, pos.Y) {
				return drc.NeedNever
			}
			return 0
		},
	}
}

func TestStraightLine(t *testing.T) {
	w := newWorld(2, 10, 200)
	cfg := w.config(UniformCosts(2, 3, 50), nil, nil)
	// Track y=5 (layer 0 horizontal); crossings at x = 5, 15, ...
	S := []geom.Point3{geom.Pt3(5, 5, 0)}
	T := []geom.Point3{geom.Pt3(155, 5, 0)}
	p := Search(cfg, S, T)
	if p == nil {
		t.Fatal("no path")
	}
	if p.Cost != 150 {
		t.Fatalf("cost = %d, want 150", p.Cost)
	}
	if len(p.Points) != 2 {
		t.Fatalf("points = %v", p.Points)
	}
}

func TestLayerChange(t *testing.T) {
	w := newWorld(2, 10, 200)
	cfg := w.config(UniformCosts(2, 3, 50), nil, nil)
	// Source on layer 0 track y=5, target on layer 1 track x=105: the
	// path runs along y=5 to x=105, then vias up, then along x=105.
	S := []geom.Point3{geom.Pt3(5, 5, 0)}
	T := []geom.Point3{geom.Pt3(105, 95, 1)}
	p := Search(cfg, S, T)
	if p == nil {
		t.Fatal("no path")
	}
	want := 100 + 50 + 90 // wire + via + wire
	if p.Cost != want {
		t.Fatalf("cost = %d, want %d", p.Cost, want)
	}
}

func TestDetourAroundBlockage(t *testing.T) {
	w := newWorld(2, 10, 200)
	// Wall on layer 0 across the straight route, with a hole far up.
	w.block(0, geom.R(80, 0, 90, 150))
	// Wall on layer 1 too so the via shortcut must go around as well.
	w.block(1, geom.R(80, 0, 90, 150))
	cfg := w.config(UniformCosts(2, 1, 1), nil, nil) // cheap jogs/vias
	S := []geom.Point3{geom.Pt3(5, 5, 0)}
	T := []geom.Point3{geom.Pt3(155, 5, 0)}
	p := Search(cfg, S, T)
	if p == nil {
		t.Fatal("no path")
	}
	if p.Cost <= 150 {
		t.Fatalf("cost = %d: detour must exceed straight distance", p.Cost)
	}
	// Path must not touch blocked vertices.
	for _, pt := range p.Points {
		if w.isBlocked(pt.Z, pt.X, pt.Y) {
			t.Fatalf("path point %v is blocked", pt)
		}
	}
}

func TestNoPath(t *testing.T) {
	w := newWorld(2, 10, 100)
	// Complete wall on both layers.
	w.block(0, geom.R(40, 0, 60, 100))
	w.block(1, geom.R(40, 0, 60, 100))
	cfg := w.config(UniformCosts(2, 3, 50), nil, nil)
	p := Search(cfg, []geom.Point3{geom.Pt3(5, 5, 0)}, []geom.Point3{geom.Pt3(95, 5, 0)})
	if p != nil {
		t.Fatalf("expected no path, got cost %d", p.Cost)
	}
}

func TestAreaRestriction(t *testing.T) {
	w := newWorld(2, 10, 200)
	costs := UniformCosts(2, 3, 50)
	// Without restriction a path exists.
	if p := Search(w.config(costs, nil, nil), []geom.Point3{geom.Pt3(5, 5, 0)}, []geom.Point3{geom.Pt3(155, 5, 0)}); p == nil {
		t.Fatal("unrestricted search failed")
	}
	// Restrict to a box excluding the target.
	area := FullArea(2, geom.R(0, 0, 100, 100))
	if p := Search(w.config(costs, nil, area), []geom.Point3{geom.Pt3(5, 5, 0)}, []geom.Point3{geom.Pt3(155, 5, 0)}); p != nil {
		t.Fatal("search escaped the routing area")
	}
}

func TestSourceEqualsTarget(t *testing.T) {
	w := newWorld(2, 10, 100)
	cfg := w.config(UniformCosts(2, 3, 50), nil, nil)
	pt := geom.Pt3(5, 5, 0)
	p := Search(cfg, []geom.Point3{pt}, []geom.Point3{pt})
	if p == nil || p.Cost != 0 {
		t.Fatalf("self path: %+v", p)
	}
}

func TestMultiSourceMultiTarget(t *testing.T) {
	w := newWorld(2, 10, 200)
	cfg := w.config(UniformCosts(2, 3, 50), nil, nil)
	S := []geom.Point3{geom.Pt3(5, 5, 0), geom.Pt3(5, 95, 0)}
	T := []geom.Point3{geom.Pt3(195, 95, 0), geom.Pt3(45, 95, 0)}
	p := Search(cfg, S, T)
	if p == nil {
		t.Fatal("no path")
	}
	// Best pair: (5,95) -> (45,95): cost 40.
	if p.Cost != 40 {
		t.Fatalf("cost = %d, want 40", p.Cost)
	}
}

func TestFutureCostReducesWork(t *testing.T) {
	w := newWorld(2, 10, 400)
	costs := UniformCosts(2, 3, 50)
	S := []geom.Point3{geom.Pt3(5, 5, 0)}
	T := []geom.Point3{geom.Pt3(355, 5, 0)}

	plain := Search(w.config(costs, nil, nil), S, T)
	pi := NewHFuture(2, costs, map[int][]geom.Rect{0: {geom.R(355, 5, 356, 6)}})
	directed := Search(w.config(costs, pi, nil), S, T)
	if plain == nil || directed == nil {
		t.Fatal("searches failed")
	}
	if plain.Cost != directed.Cost {
		t.Fatalf("π changed cost: %d vs %d", plain.Cost, directed.Cost)
	}
	if directed.Stats.Labels >= plain.Stats.Labels {
		t.Fatalf("π_H must reduce labels: %d vs %d", directed.Stats.Labels, plain.Stats.Labels)
	}
}

func TestRipupMode(t *testing.T) {
	w := newWorld(2, 10, 200)
	costs := UniformCosts(2, 3, 50)
	cfg := w.config(costs, nil, nil)
	// Synthetic rip-up world: positions x in [80,90] on layer 0 need
	// effort 2.
	baseRuns := cfg.WireRuns
	cfg.WireRuns = func(z, ti, lo, hi int, visit func(lo, hi int, need drc.Need)) {
		baseRuns(z, ti, lo, hi, visit)
		if z == 0 {
			a, b := max(80, lo), min(91, hi+1)
			if a < b {
				visit(a, b, 2)
			}
		}
	}
	S := []geom.Point3{geom.Pt3(5, 5, 0)}
	T := []geom.Point3{geom.Pt3(155, 5, 0)}

	// MaxNeed 0: the rip-up band is a wall on layer 0; path detours.
	p0 := Search(cfg, S, T)
	if p0 == nil || p0.Cost <= 150 {
		t.Fatalf("MaxNeed 0 must detour: %+v", p0)
	}
	// MaxNeed 2 with a small penalty: going through is cheaper.
	cfg.MaxNeed = 2
	cfg.RipupPenalty = func(n drc.Need) int { return 10 * int(n) }
	p2 := Search(cfg, S, T)
	if p2 == nil {
		t.Fatal("ripup search failed")
	}
	if p2.Cost != 150+20 {
		t.Fatalf("ripup cost = %d, want 170", p2.Cost)
	}
	// With a huge penalty the detour wins again.
	cfg.RipupPenalty = func(n drc.Need) int { return 100000 }
	p3 := Search(cfg, S, T)
	if p3 == nil || p3.Cost != p0.Cost {
		t.Fatalf("huge penalty must reproduce detour: %+v vs %+v", p3, p0)
	}
}

func TestRipupPanicsWithoutPenalty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := newWorld(2, 10, 100)
	cfg := w.config(UniformCosts(2, 3, 50), nil, nil)
	cfg.MaxNeed = 1
	Search(cfg, []geom.Point3{geom.Pt3(5, 5, 0)}, []geom.Point3{geom.Pt3(95, 5, 0)})
}

// TestFigure6Scenario recreates the situation of paper Fig. 6: horizontal
// preferred direction, β = 2, unusable stretches forcing the path to
// combine track segments, jogs and detours.
func TestFigure6Scenario(t *testing.T) {
	// Two layers so the track graph has crossings, but the routing area
	// is restricted to layer 0 — a single-plane search as in the figure.
	w := newWorld(2, 10, 120)
	// Unusable zigzag stretches as in the figure.
	w.block(0, geom.R(30, 20, 80, 30)) // blocks track y=25 partly
	w.block(0, geom.R(0, 40, 60, 50))  // blocks track y=45 partly
	costs := UniformCosts(2, 2, 1)
	area := NewArea(2)
	area.Add(0, geom.R(0, 0, 120, 120))
	cfg := w.config(costs, nil, area)
	S := []geom.Point3{geom.Pt3(5, 5, 0)}
	T := []geom.Point3{geom.Pt3(115, 65, 0)}
	p := Search(cfg, S, T)
	if p == nil {
		t.Fatal("no path")
	}
	// Reference check.
	ref := NodeSearch(cfg, S, T)
	if ref == nil || ref.Cost != p.Cost {
		t.Fatalf("interval %d vs node %v", p.Cost, ref)
	}
	// β = 2: total cost = wire(x) + 2·jog(y); x-distance 110, y 60.
	if p.Cost != 110+2*60 {
		t.Fatalf("cost = %d, want %d", p.Cost, 110+2*60)
	}
}

// TestIntervalMatchesNodeSearch fuzzes both searches on random worlds.
func TestIntervalMatchesNodeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		w := newWorld(3, 10, 150)
		for i := 0; i < rng.Intn(8); i++ {
			z := rng.Intn(3)
			x, y := rng.Intn(140), rng.Intn(140)
			w.block(z, geom.R(x, y, x+5+rng.Intn(60), y+5+rng.Intn(25)))
		}
		costs := UniformCosts(3, 1+rng.Intn(3), 1+rng.Intn(80))
		var pi FutureCost
		tx, ty := 5+10*rng.Intn(14), 5+10*rng.Intn(14)
		tz := rng.Intn(3)
		T := []geom.Point3{geom.Pt3(tx, ty, tz)}
		if tz%2 == 1 { // vertical layer: x is track coord
			T[0] = geom.Pt3(tx, ty, tz)
		}
		S := []geom.Point3{geom.Pt3(5+10*rng.Intn(14), 5+10*rng.Intn(14), rng.Intn(3))}
		if rng.Intn(2) == 0 {
			pi = NewHFuture(3, costs, map[int][]geom.Rect{tz: {geom.R(tx, ty, tx+1, ty+1)}})
		}
		a := Search(w.config(costs, pi, nil), S, T)
		b := NodeSearch(w.config(costs, nil, nil), S, T)
		switch {
		case a == nil && b == nil:
		case a == nil || b == nil:
			t.Fatalf("trial %d: existence mismatch (interval %v, node %v)", trial, a, b)
		case a.Cost != b.Cost:
			t.Fatalf("trial %d: cost %d vs %d (S=%v T=%v)", trial, a.Cost, b.Cost, S, T)
		}
	}
}

// TestIntervalBeatsNodeOnLongPaths verifies the structural advantage
// behind the paper's ≥6× claim: far fewer heap operations on
// long-distance connections.
func TestIntervalBeatsNodeOnLongPaths(t *testing.T) {
	w := newWorld(2, 10, 2000)
	costs := UniformCosts(2, 3, 50)
	S := []geom.Point3{geom.Pt3(5, 5, 0)}
	T := []geom.Point3{geom.Pt3(1995, 5, 0)}
	pi := NewHFuture(2, costs, map[int][]geom.Rect{0: {geom.R(1995, 5, 1996, 6)}})
	a := Search(w.config(costs, pi, nil), S, T)
	b := NodeSearch(w.config(costs, pi, nil), S, T)
	if a == nil || b == nil || a.Cost != b.Cost {
		t.Fatalf("mismatch: %v %v", a, b)
	}
	if a.Stats.HeapPops*10 > b.Stats.HeapPops {
		t.Fatalf("interval pops %d not ≪ node pops %d", a.Stats.HeapPops, b.Stats.HeapPops)
	}
}

func TestViaLB(t *testing.T) {
	lb := viaLB(4, []int{10, 20, 30}, []bool{false, false, true, false})
	want := []int{30, 20, 0, 30}
	for i := range want {
		if lb[i] != want[i] {
			t.Fatalf("viaLB = %v, want %v", lb, want)
		}
	}
}

func TestCompressWaypoints(t *testing.T) {
	pts := []geom.Point3{
		geom.Pt3(0, 0, 0), geom.Pt3(10, 0, 0), geom.Pt3(20, 0, 0), // collinear
		geom.Pt3(20, 10, 0), geom.Pt3(20, 10, 1), geom.Pt3(20, 10, 2), // via stack
		geom.Pt3(30, 10, 2),
	}
	got := compressWaypoints(pts)
	want := []geom.Point3{
		geom.Pt3(0, 0, 0), geom.Pt3(20, 0, 0), geom.Pt3(20, 10, 0),
		geom.Pt3(20, 10, 2), geom.Pt3(30, 10, 2),
	}
	if len(got) != len(want) {
		t.Fatalf("compress = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("compress = %v, want %v", got, want)
		}
	}
}
