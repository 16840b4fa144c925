// Package pathsearch implements BonnRoute's on-track path search (paper
// §4.1): a generalization of Dijkstra's algorithm that labels intervals
// of track-graph vertices instead of single vertices (Algorithm 4, after
// Hetzel and Peyer et al.), with the goal-directed future cost π_H (ℓ1 +
// via lower bound) and the rip-up cost mode of §4.2. A plain node-based
// Dijkstra over the same implicit graph is included as the correctness
// reference and as the baseline for the ≥6× interval-labelling speedup
// statistic.
package pathsearch

import (
	"bonnroute/internal/geom"
)

// Area is the routing area R ⊆ V(G_T) a search is restricted to: a union
// of rectangles per wiring layer (the corridor of global-routing tiles in
// the full flow, §4.4).
type Area struct {
	perLayer [][]geom.Rect
}

// NewArea creates an area over the given number of layers.
func NewArea(numLayers int) *Area {
	return &Area{perLayer: make([][]geom.Rect, numLayers)}
}

// FullArea returns an area covering rect on every layer.
func FullArea(numLayers int, rect geom.Rect) *Area {
	a := NewArea(numLayers)
	for z := range a.perLayer {
		a.perLayer[z] = []geom.Rect{rect}
	}
	return a
}

// Add includes rect on layer z.
func (a *Area) Add(z int, rect geom.Rect) {
	if z >= 0 && z < len(a.perLayer) && !rect.Empty() {
		a.perLayer[z] = append(a.perLayer[z], rect)
	}
}

// Contains reports whether the vertex (x, y, z) lies in the area.
func (a *Area) Contains(x, y, z int) bool {
	if z < 0 || z >= len(a.perLayer) {
		return false
	}
	p := geom.Pt(x, y)
	for _, r := range a.perLayer[z] {
		if r.ContainsClosed(p) {
			return true
		}
	}
	return false
}

// TrackSpans returns the sorted disjoint along-track spans of the area on
// the track of layer z (preferred direction dir) at orthogonal coordinate
// c. Endpoints are inclusive (a vertex on the area border is usable).
func (a *Area) TrackSpans(z int, dir geom.Direction, c int) []geom.Interval {
	return a.AppendTrackSpans(nil, z, dir, c)
}

// AppendTrackSpans is TrackSpans writing into dst (typically a reused
// scratch buffer), avoiding a per-call allocation on the search hot path.
func (a *Area) AppendTrackSpans(dst []geom.Interval, z int, dir geom.Direction, c int) []geom.Interval {
	if z < 0 || z >= len(a.perLayer) {
		return dst
	}
	base := len(dst)
	for _, r := range a.perLayer[z] {
		o := r.Span(dir.Perp())
		if c < o.Lo || c > o.Hi {
			continue
		}
		s := r.Span(dir)
		dst = append(dst, geom.Interval{Lo: s.Lo, Hi: s.Hi + 1}) // inclusive hi
	}
	spans := dst[base:]
	if len(spans) <= 1 {
		return dst
	}
	// Insertion sort: span counts per track are tiny, and sort.Slice's
	// closure would allocate.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Lo < spans[j-1].Lo; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.Lo <= last.Hi {
			if s.Hi > last.Hi {
				last.Hi = s.Hi
			}
		} else {
			out = append(out, s)
		}
	}
	return dst[:base+len(out)]
}

// NumLayers returns the number of layers the area spans.
func (a *Area) NumLayers() int { return len(a.perLayer) }
