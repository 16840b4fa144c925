package pathsearch

import (
	"sync"

	"bonnroute/internal/drc"
	"bonnroute/internal/geom"
	"bonnroute/internal/tracks"
)

// Engine owns all mutable path-search state for the lifetime of a router
// worker. A search allocates from the engine's pools — interval arena,
// label store, priority queue, expansion table — and an O(1) epoch bump
// resets everything for the next search, so steady-state searches cost a
// small constant number of allocations (the returned Path) instead of
// rebuilding heaps and hash maps per net. One Engine serves one goroutine
// at a time; create one per worker and reuse it across rounds.
type Engine struct {
	// Per-search wiring (valid only while a search runs).
	cfg  *Config
	tg   *tracks.Graph
	area *Area

	epoch uint32
	seq   int32 // queue insertion counter (deterministic tie-break)

	// Interval store: arena-allocated ivals plus a flat per-track cache
	// (indexed by trackBase[z]+ti) that is invalidated by epoch, not by
	// reallocation.
	arena      ivalArena
	trackBase  []int32
	trackCache []trackEntry
	cachedTG   *tracks.Graph

	// Label store and priority queue.
	labels []label
	pq     pqHeap

	// Expanded-crossing table keyed by (ival id, position).
	exp expTable

	// Scratch buffers for interval materialization. runVisitor is a
	// one-time-allocated closure handed to Config.WireRuns (a fresh
	// closure per call would escape to the heap); it clips to runSpan and
	// collects into runBuf.
	spanBuf    []geom.Interval
	runBuf     []needRun
	runSpan    geom.Interval
	runVisitor func(lo, hi int, need drc.Need)
	posBuf     []int
	needBuf    []drc.Need

	// Node-search pools (the reference Dijkstra shares the engine so the
	// interval-vs-node comparison isolates the labelling strategy).
	nodes   []nodeState
	nodeTab expTable
	nbrBuf  []nodeNbr
	npq     pqHeap

	// Future-cost cache (π_H reuse across rip-up retries, via-lower-bound
	// memo across nets sharing target layers).
	fc futureCache

	// Cached whole-graph Area for searches with cfg.Area == nil.
	fullArea   *Area
	fullAreaTG *tracks.Graph

	// total accumulates effort across searches; stats is the in-flight
	// search's tally.
	total Stats
	stats Stats

	best        int
	bestLabel   int32
	bestPos     int
	targetCount int
}

// NewEngine returns an empty engine. Pools grow on demand and are
// retained across searches.
func NewEngine() *Engine {
	return &Engine{}
}

// Stats returns the effort accumulated over all completed searches since
// the last TakeStats.
func (e *Engine) Stats() Stats { return e.total }

// TakeStats returns the accumulated effort and resets the tally — the
// explicit merge step for aggregating per-worker engines without shared
// counters.
func (e *Engine) TakeStats() Stats {
	s := e.total
	e.total = Stats{}
	return s
}

// enginePool backs the package-level Search/NodeSearch wrappers so
// one-shot callers still amortize pool memory across calls.
var enginePool = sync.Pool{New: func() interface{} { return NewEngine() }}

// needRun is a scratch record of one Need run emitted by Config.WireRuns.
type needRun struct {
	lo, hi int
	need   drc.Need
}

// trackEntry caches the materialized intervals of one track for the
// current epoch.
type trackEntry struct {
	epoch uint32
	ivs   []*ival
}

// ivalArena hands out interval records from fixed-size chunks so pointers
// stay valid while the arena grows; reset is O(1) (records and their
// label/target slices are reused in place).
type ivalArena struct {
	chunks [][]ival
	n      int
}

const ivalChunk = 128

func (a *ivalArena) alloc() *ival {
	ci, off := a.n/ivalChunk, a.n%ivalChunk
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]ival, ivalChunk))
	}
	iv := &a.chunks[ci][off]
	iv.id = int32(a.n)
	a.n++
	iv.labels = iv.labels[:0]
	iv.targets = iv.targets[:0]
	return iv
}

func (a *ivalArena) reset() { a.n = 0 }

// expTable is an epoch-stamped open-addressing map from (ival id,
// position) to the best expansion key seen. Reset is O(1): stale-epoch
// slots read as empty.
type expTable struct {
	keys   []uint64
	vals   []int
	epochs []uint32
	mask   int
	n      int
	epoch  uint32
}

func (t *expTable) reset(epoch uint32) {
	t.epoch = epoch
	t.n = 0
}

func (t *expTable) slot(key uint64) int {
	return int((key*0x9E3779B97F4A7C15)>>32) & t.mask
}

// lookup returns the slot index for key and whether it is occupied this
// epoch. The table grows before it fills, so probing always terminates.
func (t *expTable) lookup(key uint64) (int, bool) {
	if t.mask == 0 {
		t.grow(1024)
	}
	i := t.slot(key)
	for {
		if t.epochs[i] != t.epoch {
			return i, false
		}
		if t.keys[i] == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

func (t *expTable) get(key uint64) (int, bool) {
	if t.mask == 0 {
		return 0, false
	}
	i, ok := t.lookup(key)
	if !ok {
		return 0, false
	}
	return t.vals[i], true
}

func (t *expTable) set(key uint64, v int) {
	i, ok := t.lookup(key)
	if !ok {
		if 4*(t.n+1) > 3*(t.mask+1) {
			t.grow(2 * (t.mask + 1))
			i, _ = t.lookup(key)
		}
		t.n++
		t.keys[i] = key
		t.epochs[i] = t.epoch
	}
	t.vals[i] = v
}

func (t *expTable) grow(size int) {
	oldKeys, oldVals, oldEpochs := t.keys, t.vals, t.epochs
	t.keys = make([]uint64, size)
	t.vals = make([]int, size)
	t.epochs = make([]uint32, size)
	t.mask = size - 1
	t.n = 0
	for i, ep := range oldEpochs {
		if ep == t.epoch {
			j, _ := t.lookup(oldKeys[i])
			t.keys[j] = oldKeys[i]
			t.vals[j] = oldVals[i]
			t.epochs[j] = t.epoch
			t.n++
		}
	}
}

// bindGraph (re)builds the flat track-cache index for a new track graph.
func (e *Engine) bindGraph(tg *tracks.Graph) {
	e.tg = tg
	if tg == e.cachedTG {
		return
	}
	e.cachedTG = tg
	nl := tg.NumLayers()
	e.trackBase = append(e.trackBase[:0], make([]int32, nl)...)
	total := 0
	for z := 0; z < nl; z++ {
		e.trackBase[z] = int32(total)
		total += len(tg.Layers[z].Coords)
	}
	if cap(e.trackCache) < total {
		e.trackCache = make([]trackEntry, total)
	}
	e.trackCache = e.trackCache[:total]
	for i := range e.trackCache {
		e.trackCache[i] = trackEntry{}
	}
}

// beginSearch resets the pooled state for a fresh search under cfg.
func (e *Engine) beginSearch(cfg *Config) {
	if cfg.MaxNeed > 0 && cfg.RipupPenalty == nil {
		panic("pathsearch: MaxNeed > 0 requires RipupPenalty")
	}
	e.cfg = cfg
	e.bindGraph(cfg.Tracks)
	if cfg.Area == nil {
		if e.fullArea == nil || e.fullAreaTG != e.tg {
			e.fullArea = FullArea(e.tg.NumLayers(), e.tg.Area)
			e.fullAreaTG = e.tg
		}
		e.area = e.fullArea
	} else {
		e.area = cfg.Area
	}
	e.epoch++
	e.seq = 0
	e.arena.reset()
	e.labels = e.labels[:0]
	e.pq = e.pq[:0]
	e.exp.reset(e.epoch)
	e.stats = Stats{}
	e.best = inf
	e.bestLabel = -1
	e.bestPos = 0
	e.targetCount = 0
}

// endSearch folds the search tally into the engine totals.
func (e *Engine) endSearch() {
	e.stats.Searches = 1
	e.total.Add(e.stats)
}
