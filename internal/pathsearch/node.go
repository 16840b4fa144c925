package pathsearch

import (
	"bonnroute/internal/geom"
)

// NodeSearch is the classical maze-running reference: Dijkstra (optionally
// goal-directed through cfg.Pi) labeling every track-graph vertex
// individually. It supports only MaxNeed == 0 and exists (a) as the
// correctness oracle the interval search is tested against and (b) as the
// baseline of the paper's ≥6× interval-labelling speedup measurement
// (§4.1) and of the ISR-like comparison router. Like Search, this wrapper
// draws a pooled Engine; long-lived callers should use Engine.NodeSearch.
func NodeSearch(cfg *Config, S, T []geom.Point3) *Path {
	e := enginePool.Get().(*Engine)
	p := e.NodeSearch(cfg, S, T)
	enginePool.Put(e)
	return p
}

// nodeState is one labeled track-graph vertex of the reference search.
// States live in the engine's pooled slice; nodeTab maps packed vertex
// keys to state indices so per-vertex map allocations are gone.
type nodeState struct {
	z, ti  int32
	along  int
	dist   int
	parent int32 // state index, -1 for sources
	target bool
	done   bool
}

// nodeNbr is one outgoing edge produced by nodeNeighbors.
type nodeNbr struct {
	z, ti, along, cost int
}

// packNode packs a vertex into the open-addressing table key: 8 bits of
// layer, 24 bits of track index, 32 bits of along-track coordinate.
func packNode(z, ti, along int) uint64 {
	return uint64(uint8(z))<<56 | uint64(uint32(ti)&0xFFFFFF)<<32 | uint64(uint32(along))
}

// nodeAt returns the state index for vertex (z, ti, along), creating an
// unreached state on first touch.
func (e *Engine) nodeAt(z, ti, along int) int32 {
	key := packNode(z, ti, along)
	if idx, ok := e.nodeTab.get(key); ok {
		return int32(idx)
	}
	idx := len(e.nodes)
	e.nodes = append(e.nodes, nodeState{
		z: int32(z), ti: int32(ti), along: along, dist: inf, parent: -1,
	})
	e.nodeTab.set(key, idx)
	return int32(idx)
}

// NodeSearch runs the node-based reference Dijkstra on the engine's
// pooled state. The engine must not be used concurrently.
func (e *Engine) NodeSearch(cfg *Config, S, T []geom.Point3) *Path {
	if cfg.MaxNeed != 0 {
		panic("pathsearch: NodeSearch supports MaxNeed == 0 only")
	}
	e.beginSearch(cfg)
	e.nodes = e.nodes[:0]
	e.nodeTab.reset(e.epoch)
	e.npq = e.npq[:0]
	p := e.runNode(S, T)
	e.endSearch()
	e.cfg = nil
	e.area = nil
	return p
}

func (e *Engine) runNode(S, T []geom.Point3) *Path {
	numTargets := 0
	for _, t := range T {
		ti := e.trackOf(t)
		if ti < 0 {
			continue
		}
		along := e.alongOf(t)
		if e.findIval(t.Z, ti, along) != nil {
			si := e.nodeAt(t.Z, ti, along)
			if !e.nodes[si].target {
				e.nodes[si].target = true
				numTargets++
			}
		}
	}
	if numTargets == 0 {
		return nil
	}

	for _, src := range S {
		ti := e.trackOf(src)
		if ti < 0 {
			continue
		}
		along := e.alongOf(src)
		if e.findIval(src.Z, ti, along) != nil {
			e.nodeRelax(e.nodeAt(src.Z, ti, along), 0, -1)
		}
	}

	var bestSi int32 = -1
	best := inf
	pops := 0
	for len(e.npq) > 0 {
		it := e.npq.pop()
		si := it.label
		st := &e.nodes[si]
		if st.done || it.key != st.dist+e.pi(int(st.z), int(st.ti), st.along) {
			continue // stale entry (lazy deletion)
		}
		st.done = true
		pops++
		if st.target && st.dist < best {
			best = st.dist
			bestSi = si
			// First settled target is optimal under feasible π — π_H is
			// exactly feasible (property-tested).
			break
		}
		e.nbrBuf = e.nodeNeighbors(e.nbrBuf[:0], int(st.z), int(st.ti), st.along)
		d := st.dist
		for _, nb := range e.nbrBuf {
			e.nodeRelax(e.nodeAt(nb.z, nb.ti, nb.along), d+nb.cost, si)
		}
	}
	if bestSi < 0 {
		return nil
	}
	// Backtrack.
	var pts []geom.Point3
	for si := bestSi; si >= 0; {
		st := &e.nodes[si]
		pts = append(pts, e.vertexPoint(int(st.z), int(st.ti), st.along))
		si = st.parent
	}
	for i, j := 0, len(pts)-1; i < j; i, j = i+1, j-1 {
		pts[i], pts[j] = pts[j], pts[i]
	}
	e.stats.HeapPops += pops
	e.stats.Labels += len(e.nodes)
	return &Path{
		Points: compressWaypoints(pts),
		Cost:   best,
		Stats:  Stats{HeapPops: pops, Labels: len(e.nodes)},
	}
}

// nodeRelax lowers the tentative distance of state si to d via parent
// state from, pushing a queue entry keyed by d + π.
func (e *Engine) nodeRelax(si int32, d int, from int32) {
	st := &e.nodes[si]
	if d < st.dist {
		st.dist = d
		st.parent = from
		key := d + e.pi(int(st.z), int(st.ti), st.along)
		e.npq.push(pqItem{key: key, seq: e.seq, label: si})
		e.seq++
	}
}

// nodeNeighbors appends the outgoing edges of a vertex to dst: steps to
// the previous/next crossing along the track, jogs, and vias.
func (e *Engine) nodeNeighbors(dst []nodeNbr, z, ti, along int) []nodeNbr {
	iv := e.findIval(z, ti, along)
	if iv == nil {
		return dst
	}
	layer := &e.tg.Layers[z]
	// Along-track steps to adjacent crossings (staying inside the
	// contiguous legal region, which at MaxNeed==0 is one interval).
	cr := layer.Cross
	idx := searchInts(cr, along)
	if idx < len(cr) && cr[idx] == along {
		if idx+1 < len(cr) && cr[idx+1] <= iv.hi {
			dst = append(dst, nodeNbr{z, ti, cr[idx+1], cr[idx+1] - along})
		}
		if idx > 0 && cr[idx-1] >= iv.lo {
			dst = append(dst, nodeNbr{z, ti, cr[idx-1], along - cr[idx-1]})
		}
	}
	// Jogs.
	if ti+1 < len(layer.Coords) {
		if e.cfg.JogNeed(z, ti, along) == 0 && e.findIval(z, ti+1, along) != nil {
			gap := layer.Coords[ti+1] - layer.Coords[ti]
			dst = append(dst, nodeNbr{z, ti + 1, along, e.cfg.Costs.BetaJog[z] * gap})
		}
	}
	if ti > 0 {
		if e.cfg.JogNeed(z, ti-1, along) == 0 && e.findIval(z, ti-1, along) != nil {
			gap := layer.Coords[ti] - layer.Coords[ti-1]
			dst = append(dst, nodeNbr{z, ti - 1, along, e.cfg.Costs.BetaJog[z] * gap})
		}
	}
	// Vias.
	px, py := e.vertexXY(z, ti, along)
	pos := geom.Pt(px, py)
	if z+1 < e.tg.NumLayers() {
		up := &e.tg.Layers[z+1]
		if topTi := up.TrackAt(pos.Coord(up.Dir.Perp())); topTi >= 0 {
			upAlong := pos.Coord(up.Dir)
			if e.cfg.ViaNeed(z, ti, topTi, pos) == 0 && e.findIval(z+1, topTi, upAlong) != nil {
				dst = append(dst, nodeNbr{z + 1, topTi, upAlong, e.cfg.Costs.GammaVia[z]})
			}
		}
	}
	if z > 0 {
		down := &e.tg.Layers[z-1]
		if botTi := down.TrackAt(pos.Coord(down.Dir.Perp())); botTi >= 0 {
			downAlong := pos.Coord(down.Dir)
			if e.cfg.ViaNeed(z-1, botTi, ti, pos) == 0 && e.findIval(z-1, botTi, downAlong) != nil {
				dst = append(dst, nodeNbr{z - 1, botTi, downAlong, e.cfg.Costs.GammaVia[z-1]})
			}
		}
	}
	return dst
}

func searchInts(xs []int, x int) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
