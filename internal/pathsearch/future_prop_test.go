package pathsearch

import (
	"fmt"
	"math/rand"
	"testing"

	"bonnroute/internal/geom"
)

// futureScenario is one synthetic world + target set the future-cost
// property tests run every π implementation against.
type futureScenario struct {
	name    string
	world   *testWorld
	costs   Costs
	targets map[int][]geom.Rect
	T       []geom.Point3
}

func futureScenarios() []futureScenario {
	mk := func(name string, pts []geom.Point3, block func(w *testWorld)) futureScenario {
		w := newWorld(4, 10, 300)
		if block != nil {
			block(w)
		}
		targets := map[int][]geom.Rect{}
		for _, p := range pts {
			targets[p.Z] = append(targets[p.Z],
				geom.Rect{XMin: p.X, YMin: p.Y, XMax: p.X + 1, YMax: p.Y + 1})
		}
		return futureScenario{
			name: name, world: w, costs: UniformCosts(4, 3, 50),
			targets: targets, T: pts,
		}
	}
	return []futureScenario{
		mk("free", []geom.Point3{geom.Pt3(245, 45, 0)}, nil),
		mk("wall", []geom.Point3{geom.Pt3(245, 45, 0)}, func(w *testWorld) {
			// A wall across the middle of every layer, wide enough to cover
			// whole coarse-grid cells, leaving only a narrow corridor at the
			// top: crossing it forces a long detour the reduced grid must see.
			for z := 0; z < 4; z++ {
				w.block(z, geom.R(120, 0, 200, 280))
			}
		}),
		mk("multi-target", []geom.Point3{
			geom.Pt3(245, 45, 0), geom.Pt3(55, 245, 2), geom.Pt3(155, 155, 1),
		}, func(w *testWorld) {
			w.block(0, geom.R(80, 80, 120, 200))
			w.block(1, geom.R(180, 40, 220, 120))
		}),
	}
}

// trackVertices enumerates the scenario's track-graph vertices.
func trackVertices(w *testWorld) []geom.Point3 {
	var out []geom.Point3
	for z := range w.tg.Layers {
		layer := &w.tg.Layers[z]
		for _, c := range layer.Coords {
			for _, along := range layer.Cross {
				if layer.Dir == geom.Horizontal {
					out = append(out, geom.Pt3(along, c, z))
				} else {
					out = append(out, geom.Pt3(c, along, z))
				}
			}
		}
	}
	return out
}

// buildFutures constructs every FutureCost implementation over the
// scenario, returning name → π plus the per-π feasibility slack the
// coarse grid is allowed (0 for the exact π_H; one cell for the
// quantized grid, as documented on PFuture.At).
func buildFutures(sc futureScenario, cell int) (map[string]FutureCost, map[string]int) {
	bounds := sc.world.tg.Area
	blocked := func(z int, cellRect geom.Rect) bool {
		for _, r := range sc.world.blocked[z] {
			if r.ContainsRect(cellRect) {
				return true
			}
		}
		return false
	}
	nl := len(sc.world.tg.Layers)
	pis := map[string]FutureCost{
		"HFuture": NewHFuture(nl, sc.costs, sc.targets),
		"PFuture": NewPFuture(nl, sc.costs, sc.targets, bounds,
			PFutureConfig{Cell: cell, Blocked: blocked}),
	}
	slack := map[string]int{"HFuture": 0, "PFuture": cell}
	return pis, slack
}

// TestFutureFeasibility samples track-graph edges and asserts
// π(u) ≤ c(u,v) + π(v) (+ the documented per-π quantization slack) for
// every FutureCost implementation: the property the goal-directed search
// needs for nonnegative reduced costs.
func TestFutureFeasibility(t *testing.T) {
	const cell = 40
	for _, sc := range futureScenarios() {
		pis, slack := buildFutures(sc, cell)
		verts := trackVertices(sc.world)
		rng := rand.New(rand.NewSource(7))
		check := func(name string, pi FutureCost, u, v geom.Point3, c int) {
			d := pi.At(u.X, u.Y, u.Z) - c - pi.At(v.X, v.Y, v.Z)
			if d > slack[name] {
				t.Fatalf("%s/%s: infeasible edge %v -> %v cost %d: π(u)-c-π(v) = %d > slack %d",
					sc.name, name, u, v, c, d, slack[name])
			}
		}
		// Only edges that exist in the real track graph count: a segment
		// through a blocked rect is NeedNever in the harness config.
		clear := func(z int, a, b geom.Point3) bool {
			seg := geom.Rect{
				XMin: min(a.X, b.X), YMin: min(a.Y, b.Y),
				XMax: max(a.X, b.X) + 1, YMax: max(a.Y, b.Y) + 1,
			}
			for _, r := range sc.world.blocked[z] {
				if r.Intersects(seg) {
					return false
				}
			}
			return true
		}
		for i := 0; i < 4000; i++ {
			u := verts[rng.Intn(len(verts))]
			layer := &sc.world.tg.Layers[u.Z]
			var edges []struct {
				v geom.Point3
				c int
			}
			add := func(v geom.Point3, c int) {
				if u.Z == v.Z && !clear(u.Z, u, v) {
					return
				}
				if u.Z != v.Z && (!clear(u.Z, u, u) || !clear(v.Z, v, v)) {
					return
				}
				edges = append(edges, struct {
					v geom.Point3
					c int
				}{v, c})
			}
			// Along-track step to a random other crossing on the track.
			along := layer.Cross[rng.Intn(len(layer.Cross))]
			if v := u; layer.Dir == geom.Horizontal {
				v.X = along
				add(v, abs(v.X-u.X))
			} else {
				v.Y = along
				add(v, abs(v.Y-u.Y))
			}
			// Jog to the adjacent track.
			ti := layer.TrackAt(geom.Pt(u.X, u.Y).Coord(layer.Dir.Perp()))
			if ti >= 0 && ti+1 < len(layer.Coords) {
				gap := layer.Coords[ti+1] - layer.Coords[ti]
				v := u
				if layer.Dir == geom.Horizontal {
					v.Y += gap
				} else {
					v.X += gap
				}
				add(v, sc.costs.BetaJog[u.Z]*gap)
			}
			// Via up.
			if u.Z+1 < len(sc.world.tg.Layers) {
				add(geom.Pt3(u.X, u.Y, u.Z+1), sc.costs.GammaVia[u.Z])
			}
			for name, pi := range pis {
				for _, e := range edges {
					// Feasibility is symmetric for undirected edges: check
					// both orientations.
					check(name, pi, u, e.v, e.c)
					check(name, pi, e.v, u, e.c)
				}
			}
		}
	}
}

// TestFutureAdmissibility compares every π against exact distances: for
// sampled vertices u, π(u) must not exceed the cost of a shortest path
// from u to the target set (computed by the node-based reference
// Dijkstra with π ≡ 0).
func TestFutureAdmissibility(t *testing.T) {
	const cell = 40
	for _, sc := range futureScenarios() {
		pis, _ := buildFutures(sc, cell)
		verts := trackVertices(sc.world)
		rng := rand.New(rand.NewSource(11))
		cfg := sc.world.config(sc.costs, nil, nil)
		checked := 0
		for i := 0; i < len(verts) && checked < 60; i++ {
			u := verts[rng.Intn(len(verts))]
			if sc.world.isBlocked(u.Z, u.X, u.Y) {
				continue
			}
			p := NodeSearch(cfg, []geom.Point3{u}, sc.T)
			if p == nil {
				continue
			}
			checked++
			for name, pi := range pis {
				if got := pi.At(u.X, u.Y, u.Z); got > p.Cost {
					t.Fatalf("%s/%s: inadmissible at %v: π = %d > exact %d",
						sc.name, name, u, got, p.Cost)
				}
			}
		}
		if checked < 20 {
			t.Fatalf("%s: only %d vertices reached the targets", sc.name, checked)
		}
		// π must vanish on the targets themselves.
		for _, tp := range sc.T {
			for name, pi := range pis {
				if got := pi.At(tp.X, tp.Y, tp.Z); got != 0 {
					t.Fatalf("%s/%s: π(target %v) = %d, want 0", sc.name, name, tp, got)
				}
			}
		}
	}
}

// TestFutureDominance asserts the coarse-grid bound never falls below
// π_H pointwise (it takes the max with it by construction) and that it
// actually strengthens the bound somewhere on the detour scenario —
// otherwise the stronger machinery is dead weight.
func TestFutureDominance(t *testing.T) {
	const cell = 40
	for _, sc := range futureScenarios() {
		pis, _ := buildFutures(sc, cell)
		h := pis["HFuture"]
		stronger := 0
		for _, u := range trackVertices(sc.world) {
			hb := h.At(u.X, u.Y, u.Z)
			got := pis["PFuture"].At(u.X, u.Y, u.Z)
			if got < hb {
				t.Fatalf("%s/PFuture: %d < π_H %d at %v", sc.name, got, hb, u)
			}
			if got > hb {
				stronger++
			}
		}
		if sc.name == "wall" && stronger == 0 {
			t.Fatalf("%s: π_P never exceeds π_H despite the wall", sc.name)
		}
	}
}

// TestFutureSteadyStateAllocs pins the alloc budget of future-cost
// construction in steady state: an engine-cached π_H request (the
// rip-up retry path) must not allocate at all.
func TestFutureSteadyStateAllocs(t *testing.T) {
	sc := futureScenarios()[0]
	e := NewEngine()
	e.HFutureFor(3, 4, sc.costs, sc.T)
	allocs := testing.AllocsPerRun(100, func() {
		e.HFutureFor(3, 4, sc.costs, sc.T)
	})
	if allocs > 0 {
		t.Fatalf("cached future-cost requests allocate %.1f/op, want 0", allocs)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var _ = fmt.Sprintf // keep fmt for debugging helpers
