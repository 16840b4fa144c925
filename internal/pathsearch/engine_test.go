package pathsearch

import (
	"sync"
	"sync/atomic"
	"testing"

	"bonnroute/internal/geom"
)

// blockedWorld builds a 4-layer world with scattered blockages so searches
// exercise detours, jogs, and vias — not just the straight-line fast path.
func blockedWorld() (*testWorld, *Config, []geom.Point3, []geom.Point3) {
	w := newWorld(4, 10, 400)
	w.block(0, geom.R(100, 0, 110, 300))
	w.block(0, geom.R(200, 100, 210, 400))
	w.block(1, geom.R(140, 140, 260, 160))
	w.block(2, geom.R(0, 240, 300, 250))
	cfg := w.config(UniformCosts(4, 3, 50), nil, nil)
	S := []geom.Point3{geom.Pt3(5, 5, 0)}
	T := []geom.Point3{geom.Pt3(385, 365, 0), geom.Pt3(365, 385, 2)}
	return w, cfg, S, T
}

func pathsEqual(a, b *Path) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Cost != b.Cost || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}

// TestEngineReuseDeterminism verifies the epoch-reset contract: a reused
// engine returns bit-identical paths and effort counters on every rerun
// of the same search.
func TestEngineReuseDeterminism(t *testing.T) {
	_, cfg, S, T := blockedWorld()
	e := NewEngine()
	first := e.Search(cfg, S, T)
	if first == nil {
		t.Fatal("no path")
	}
	for i := 0; i < 10; i++ {
		p := e.Search(cfg, S, T)
		if !pathsEqual(first, p) {
			t.Fatalf("run %d: path diverged after engine reuse", i)
		}
		if p.Stats.HeapPops != first.Stats.HeapPops || p.Stats.Labels != first.Stats.Labels {
			t.Fatalf("run %d: stats diverged: %+v vs %+v", i, p.Stats, first.Stats)
		}
	}
}

// TestSteadyStateAllocs is the allocation-regression guard for the
// tentpole claim: once warm, a search allocates only the returned Path
// (struct + waypoint slice) — everything else comes from engine pools.
func TestSteadyStateAllocs(t *testing.T) {
	_, cfg, S, T := blockedWorld()
	e := NewEngine()
	e.Search(cfg, S, T) // warm the pools
	e.Search(cfg, S, T)
	const maxAllocs = 8
	if got := testing.AllocsPerRun(50, func() {
		if e.Search(cfg, S, T) == nil {
			t.Fatal("no path")
		}
	}); got > maxAllocs {
		t.Errorf("interval search: %v allocs/op steady-state, want <= %d", got, maxAllocs)
	}
	e.NodeSearch(cfg, S, T)
	e.NodeSearch(cfg, S, T)
	const maxNodeAllocs = 16
	if got := testing.AllocsPerRun(50, func() {
		if e.NodeSearch(cfg, S, T) == nil {
			t.Fatal("no path")
		}
	}); got > maxNodeAllocs {
		t.Errorf("node search: %v allocs/op steady-state, want <= %d", got, maxNodeAllocs)
	}
}

// TestParallelSteadyStateAllocs extends the allocation guard to the
// parallel path: four warmed engines searching concurrently (the shape
// of a Workers=4 strip round) must stay within the same per-search
// budget as the Workers=1 guard above — sharding must not reintroduce
// per-search heap traffic through contention fallbacks or shared
// scratch.
func TestParallelSteadyStateAllocs(t *testing.T) {
	_, cfg, S, T := blockedWorld()
	const workers = 4
	const perWorker = 25
	engines := make([]*Engine, workers)
	for i := range engines {
		engines[i] = NewEngine()
		engines[i].Search(cfg, S, T) // warm the pools
		engines[i].Search(cfg, S, T)
	}
	var failed atomic.Bool
	total := testing.AllocsPerRun(5, func() {
		var wg sync.WaitGroup
		for _, e := range engines {
			wg.Add(1)
			go func(e *Engine) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if e.Search(cfg, S, T) == nil {
						failed.Store(true)
						return
					}
				}
			}(e)
		}
		wg.Wait()
	})
	if failed.Load() {
		t.Fatal("no path")
	}
	// The goroutine spawns and WaitGroup churn amortize over
	// workers*perWorker searches; the per-search budget matches the
	// serial guard's maxAllocs.
	const maxAllocs = 8
	if perSearch := total / (workers * perWorker); perSearch > maxAllocs {
		t.Errorf("parallel interval search: %.2f allocs/op steady-state, want <= %d",
			perSearch, maxAllocs)
	}
}

// TestFutureCacheReuse verifies HFutureFor's rip-up-retry fast path: the
// same net re-requesting π for unchanged targets gets the cached
// structure back, and a target change invalidates it.
func TestFutureCacheReuse(t *testing.T) {
	e := NewEngine()
	costs := UniformCosts(4, 3, 50)
	pts := []geom.Point3{geom.Pt3(100, 100, 0), geom.Pt3(200, 200, 2)}

	first := e.HFutureFor(7, 4, costs, pts)
	again := e.HFutureFor(7, 4, costs, pts)
	if first != again {
		t.Error("same net, same targets: expected cached π_H back")
	}
	if e.Stats().PiReused != 1 {
		t.Errorf("PiReused = %d, want 1", e.Stats().PiReused)
	}
	other := e.HFutureFor(8, 4, costs, pts)
	if other == first {
		t.Error("different net: expected a fresh π_H")
	}
	moved := e.HFutureFor(8, 4, costs, []geom.Point3{geom.Pt3(50, 50, 1)})
	if moved == other {
		t.Error("changed targets: expected a fresh π_H")
	}

	// The cached π must price vertices exactly like an uncached one.
	fresh := NewHFuture(4, costs, map[int][]geom.Rect{
		0: {geom.R(100, 100, 101, 101)},
		2: {geom.R(200, 200, 201, 201)},
	})
	cached := e.HFutureFor(9, 4, costs, pts)
	for _, probe := range []geom.Point3{
		geom.Pt3(0, 0, 0), geom.Pt3(150, 150, 1), geom.Pt3(300, 10, 3), geom.Pt3(100, 100, 0),
	} {
		if got, want := cached.At(probe.X, probe.Y, probe.Z), fresh.At(probe.X, probe.Y, probe.Z); got != want {
			t.Errorf("π(%v) = %d via cache, %d fresh", probe, got, want)
		}
	}
}

// TestTakeStats verifies the explicit per-engine merge: totals accumulate
// across searches and TakeStats drains them.
func TestTakeStats(t *testing.T) {
	_, cfg, S, T := blockedWorld()
	e := NewEngine()
	e.Search(cfg, S, T)
	e.Search(cfg, S, T)
	s := e.TakeStats()
	if s.Searches != 2 {
		t.Errorf("Searches = %d, want 2", s.Searches)
	}
	if s.Labels == 0 || s.HeapPops == 0 || s.Intervals == 0 {
		t.Errorf("expected nonzero effort, got %+v", s)
	}
	if after := e.Stats(); after != (Stats{}) {
		t.Errorf("TakeStats did not drain: %+v", after)
	}
}

// BenchmarkEngineSteady measures the steady-state hot path the router
// workers run: one engine reused across searches.
func BenchmarkEngineSteady(b *testing.B) {
	_, cfg, S, T := blockedWorld()
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Search(cfg, S, T) == nil {
			b.Fatal("no path")
		}
	}
}
