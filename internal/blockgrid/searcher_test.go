package blockgrid

import (
	"math/rand"
	"reflect"
	"testing"

	"bonnroute/internal/geom"
)

// instance is one randomized search query.
type instance struct {
	obst     []geom.Rect
	from, to geom.Point
	tau      int
	bounds   geom.Rect
}

// randomInstance draws a query on a grid whose size varies with the
// bounds and the number of obstacles. Endpoints are taken strictly
// inside an obstacle, on an obstacle border, or anywhere in the bounds.
func randomInstance(rng *rand.Rand) instance {
	half := 60 + rng.Intn(200)
	in := instance{tau: 5 + rng.Intn(15), bounds: geom.R(-half, -half, half, half)}
	for i := 0; i < 1+rng.Intn(6); i++ {
		x, y := rng.Intn(2*half)-half, rng.Intn(2*half)-half
		in.obst = append(in.obst, geom.R(x, y, x+10+rng.Intn(60), y+10+rng.Intn(60)))
	}
	in.from, in.to = endpoint(rng, in), endpoint(rng, in)
	return in
}

func endpoint(rng *rand.Rand, in instance) geom.Point {
	o := in.obst[rng.Intn(len(in.obst))]
	switch rng.Intn(3) {
	case 0: // strictly inside
		return geom.Pt(o.XMin+1+rng.Intn(o.XMax-o.XMin-1), o.YMin+1+rng.Intn(o.YMax-o.YMin-1))
	case 1: // on the border
		if rng.Intn(2) == 0 {
			return geom.Pt(o.XMin+rng.Intn(o.XMax-o.XMin+1), []int{o.YMin, o.YMax}[rng.Intn(2)])
		}
		return geom.Pt([]int{o.XMin, o.XMax}[rng.Intn(2)], o.YMin+rng.Intn(o.YMax-o.YMin+1))
	}
	b := in.bounds
	return geom.Pt(b.XMin+rng.Intn(b.XMax-b.XMin+1), b.YMin+rng.Intn(b.YMax-b.YMin+1))
}

func (in instance) inside(p geom.Point) bool {
	for _, o := range in.obst {
		if strictlyInside(p, o) {
			return true
		}
	}
	return false
}

type result struct {
	pts    []geom.Point
	length int
	ok     bool
}

func (in instance) run(s *Searcher) result {
	pts, length, ok := s.Search(in.obst, in.from, in.to, in.tau, in.bounds)
	return result{pts, length, ok}
}

// TestSearchInteriorEndpoints pins the interior rejection to the full
// grid search: on endpoints strictly inside, on the border of, and
// outside obstacles, Search answers exactly what the exhaustive search
// answers, a strictly interior endpoint never routes, a border target
// with an open corridor routes, and every found path is τ-feasible.
func TestSearchInteriorEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s, full Searcher
	counts := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		in := randomInstance(rng)
		got := in.run(&s)
		pts, length, ok := full.search(in.obst, in.from, in.to, in.tau, in.bounds)
		if want := (result{pts, length, ok}); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Search %v, full search %v", trial, got, want)
		}
		inside := in.from != in.to && (in.inside(in.from) || in.inside(in.to))
		switch {
		case inside && got.ok:
			t.Fatalf("trial %d: endpoint strictly inside an obstacle routed: %v", trial, got.pts)
		case inside:
			counts["inside"]++
		case got.ok:
			counts["routed"]++
		}
		if got.ok && !SegmentsOK(got.pts, in.tau, in.obst) {
			t.Fatalf("trial %d: infeasible path %v", trial, got.pts)
		}
	}
	if counts["inside"] < 50 || counts["routed"] < 50 {
		t.Fatalf("degenerate sample: %v", counts)
	}

	// A target on the left border of an obstacle, with an open straight
	// corridor to the source, routes along the corridor.
	routed := 0
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng)
		o := in.obst[0]
		in.to = geom.Pt(o.XMin, o.YMin+rng.Intn(o.YMax-o.YMin+1))
		in.from = geom.Pt(in.to.X-in.tau-rng.Intn(40), in.to.Y)
		g := bgraph{obstacles: in.obst}
		if in.inside(in.from) || !in.bounds.Contains(in.from) || !in.bounds.Contains(in.to) ||
			!g.segmentFree(in.from.X, in.from.Y, in.to.X, in.to.Y) {
			continue
		}
		got := in.run(NewSearcher())
		if !got.ok {
			t.Fatalf("trial %d: border target %v unreachable from %v through an open corridor", trial, in.to, in.from)
		}
		if got.length != in.from.Dist1(in.to) || !SegmentsOK(got.pts, in.tau, in.obst) {
			t.Fatalf("trial %d: path %v length %d", trial, got.pts, got.length)
		}
		routed++
	}
	if routed < 50 {
		t.Fatalf("only %d corridor instances", routed)
	}
}

// TestSearcherReuseMatchesFresh: the epoch-stamped state of one reused
// searcher gives exactly what a fresh searcher gives, over instances
// whose grids grow and shrink.
func TestSearcherReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	reused := NewSearcher()
	routed := 0
	for trial := 0; trial < 500; trial++ {
		in := randomInstance(rng)
		got, want := in.run(reused), in.run(NewSearcher())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reused %v, fresh %v", trial, got, want)
		}
		if got.ok {
			routed++
		}
	}
	if routed < 100 {
		t.Fatalf("only %d of 500 instances routed", routed)
	}
}

// TestSearcherEpochWrap runs searches across the epoch wrap: marks left
// by the searches just before it must not read as current afterwards.
func TestSearcherEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSearcher()
	s.epoch = maxEpoch - 3
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng)
		if got, want := in.run(s), in.run(NewSearcher()); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (epoch %d): reused %v, fresh %v", trial, s.epoch, got, want)
		}
	}
	if s.epoch >= maxEpoch-3 {
		t.Fatalf("epoch %d never wrapped", s.epoch)
	}
}

// TestSearcherSteadyStateAllocs: once warm, a search allocates only the
// returned waypoint slice.
func TestSearcherSteadyStateAllocs(t *testing.T) {
	obst := []geom.Rect{geom.R(20, -40, 30, 40), geom.R(60, 10, 90, 30)}
	from, to, tau, bounds := geom.Pt(0, 0), geom.Pt(120, 5), 10, geom.R(-100, -100, 200, 200)
	s := NewSearcher()
	if _, _, ok := s.Search(obst, from, to, tau, bounds); !ok {
		t.Fatal("no path")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Search(obst, from, to, tau, bounds)
	})
	t.Logf("%.1f allocs per search", allocs)
	if allocs > 2 {
		t.Fatalf("%.1f allocs per search, budget 2", allocs)
	}
}
