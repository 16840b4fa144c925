package pathsearch

import (
	"fmt"
	"math/rand"
	"testing"

	"bonnroute/internal/geom"
)

// futureScenario is one synthetic world + target set the future-cost
// property tests run π_H against.
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
			// A wall across the middle of every layer, leaving only a
			// narrow corridor at the top: crossing it forces a long detour
			// π_H cannot see, so admissibility is tested far from tight.
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

// hFuture builds π_H over the scenario's targets.
func hFuture(sc futureScenario) FutureCost {
	return NewHFuture(len(sc.world.tg.Layers), sc.costs, sc.targets)
}

// TestFutureFeasibility samples track-graph edges and asserts
// π(u) ≤ c(u,v) + π(v) for π_H: the property the goal-directed search
// needs for nonnegative reduced costs.
func TestFutureFeasibility(t *testing.T) {
	for _, sc := range futureScenarios() {
		pi := hFuture(sc)
		verts := trackVertices(sc.world)
		rng := rand.New(rand.NewSource(7))
		check := func(u, v geom.Point3, c int) {
			if d := pi.At(u.X, u.Y, u.Z) - c - pi.At(v.X, v.Y, v.Z); d > 0 {
				t.Fatalf("%s: infeasible edge %v -> %v cost %d: π(u)-c-π(v) = %d > 0",
					sc.name, u, v, c, d)
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
			for _, e := range edges {
				// Feasibility is symmetric for undirected edges: check
				// both orientations.
				check(u, e.v, e.c)
				check(e.v, u, e.c)
			}
		}
	}
}

// TestFutureAdmissibility compares π_H against exact distances: for
// sampled vertices u, π(u) must not exceed the cost of a shortest path
// from u to the target set (computed by the node-based reference
// Dijkstra with π ≡ 0).
func TestFutureAdmissibility(t *testing.T) {
	for _, sc := range futureScenarios() {
		pi := hFuture(sc)
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
			if got := pi.At(u.X, u.Y, u.Z); got > p.Cost {
				t.Fatalf("%s: inadmissible at %v: π = %d > exact %d",
					sc.name, u, got, p.Cost)
			}
		}
		if checked < 20 {
			t.Fatalf("%s: only %d vertices reached the targets", sc.name, checked)
		}
		// π must vanish on the targets themselves.
		for _, tp := range sc.T {
			if got := pi.At(tp.X, tp.Y, tp.Z); got != 0 {
				t.Fatalf("%s: π(target %v) = %d, want 0", sc.name, tp, got)
			}
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
