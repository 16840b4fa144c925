package incremental

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"bonnroute/internal/capest"
	"bonnroute/internal/chip"
	"bonnroute/internal/core"
	"bonnroute/internal/detail"
	"bonnroute/internal/geom"
	"bonnroute/internal/obs"
	"bonnroute/internal/pinaccess"
	"bonnroute/internal/sharing"
	"bonnroute/internal/steiner"
)

// Stats reports what one incremental run reused and what it redid. The
// JSON field names are the service wire schema (EcoStats rides in every
// cmd/routed reroute response), pinned by golden-file tests; durations
// serialize as nanoseconds (encoding/json's time.Duration form).
type Stats struct {
	// TotalNets is the net count of the mutated chip; DirtyNets how
	// many of them went back through the detail pipeline.
	TotalNets int `json:"total_nets"`
	DirtyNets int `json:"dirty_nets"`
	// AddedNets/RemovedNets/MovedPins echo the delta size.
	AddedNets   int `json:"added_nets"`
	RemovedNets int `json:"removed_nets"`
	MovedPins   int `json:"moved_pins"`
	// ReplayedNets is the clean wiring carried over verbatim.
	ReplayedNets int `json:"replayed_nets"`
	// RepricedEdges counts global-grid edges whose load the restricted
	// global solve changed (0 when the previous run skipped global).
	RepricedEdges int `json:"repriced_edges"`
	// DirtyByRule breaks DirtyNets down by the first dirty-set rule
	// (DESIGN.md §10) that caught each net: added, moved pin, previously
	// unrouted, access drift, impact region.
	DirtyByRule [5]int `json:"dirty_by_rule"`
	// DirtyFraction is DirtyNets/TotalNets.
	DirtyFraction float64 `json:"dirty_fraction"`
	// FellBack reports that the dirty fraction exceeded
	// Options.EcoThreshold and a full from-scratch run was used.
	FellBack bool `json:"fell_back,omitempty"`
	// NoOp reports an empty delta: the previous Result was returned
	// unchanged.
	NoOp bool `json:"no_op,omitempty"`
	// Stage timings.
	ApplyTime   time.Duration `json:"apply_ns"`
	PrepTime    time.Duration `json:"prep_ns"`
	DirtyTime   time.Duration `json:"dirty_ns"`
	ReplayTime  time.Duration `json:"replay_ns"`
	GlobalTime  time.Duration `json:"global_ns"`
	DetailTime  time.Duration `json:"detail_ns"`
	CleanupTime time.Duration `json:"cleanup_ns"`
	Total       time.Duration `json:"total_ns"`
}

// Reroute applies an ECO delta to a finished routing run. The previous
// Result (its chip, router and wiring) is read, never modified; the
// returned Result describes the mutated chip.
//
// An empty delta returns prev itself (bit-identical no-op). Otherwise
// the dirty set — see dirtySet for the rules — is re-routed through the
// normal global/detail pipeline while every clean net's wiring is
// replayed verbatim; when the dirty fraction exceeds opt.EcoThreshold
// the whole mutated chip is routed from scratch instead (Stats.FellBack).
//
// Determinism contract: like RouteBonnRoute, the result depends only on
// (prev, delta, opt.Seed) — never on opt.Workers.
func Reroute(ctx context.Context, prev *core.Result, delta Delta, opt core.Options) (*core.Result, *Stats, error) {
	opt.SetDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if prev == nil || prev.Router == nil || prev.Chip == nil {
		return nil, nil, errors.New("incremental: prev must be a finished routing Result")
	}
	start := time.Now()
	st := &Stats{TotalNets: len(prev.Chip.Nets)}
	if delta.Empty() {
		st.NoOp = true
		st.Total = time.Since(start)
		return prev, st, nil
	}
	st.RemovedNets = len(delta.RemoveNets)
	st.MovedPins = len(delta.MovePins)

	root := opt.Tracer.Start("flow.eco",
		obs.Int("prev_nets", len(prev.Chip.Nets)), obs.Int("workers", opt.Workers))
	cancelled := false
	defer func() { root.End(obs.Bool("cancelled", cancelled)) }()
	ctx = obs.ContextWithSpan(ctx, root)

	aStart := time.Now()
	aSpan := root.Child("eco.apply",
		obs.Int("add_nets", len(delta.AddNets)), obs.Int("remove_nets", len(delta.RemoveNets)),
		obs.Int("move_pins", len(delta.MovePins)), obs.Int("blockages", len(delta.AddBlockages)))
	c2, nm, err := Apply(prev.Chip, &delta)
	aSpan.End()
	if err != nil {
		return nil, nil, err
	}
	st.ApplyTime = time.Since(aStart)
	st.TotalNets = len(c2.Nets)
	for _, oldNi := range nm.NewToOld {
		if oldNi < 0 {
			st.AddedNets++
		}
	}

	pStart := time.Now()
	prepSpan := root.Child("eco.prep")
	// Access hints: every surviving, unmoved pin proposes the access path
	// the previous run reserved for it. Hints that are no longer legal
	// (the delta changed the space nearby, or the track graph shifted)
	// fall back to the catalogue; the rest keep their reservation
	// bit-identical, which keeps dirty-set rule 4 (access drift) scoped
	// to genuine changes.
	moved := make(map[[2]int]bool, len(delta.MovePins))
	for _, m := range delta.MovePins {
		moved[[2]int{m.Net, m.Pin}] = true
	}
	hints := make(map[int]*pinaccess.AccessPath)
	for newNi, oldNi := range nm.NewToOld {
		if oldNi < 0 {
			continue
		}
		for k, pi := range c2.Nets[newNi].Pins {
			if moved[[2]int{oldNi, k}] {
				continue
			}
			if ap := prev.Router.AccessPath(oldNi, k); ap != nil {
				hints[pi] = ap
			}
		}
	}
	// The previous run's track graph is reused outright: a small delta
	// does not justify re-optimizing track positions, replayed wiring
	// stays on-track by construction, and stable vertices keep the access
	// hints below verifiable. Legality around the delta's new geometry is
	// enforced by the routing space, not by track placement.
	r2 := detail.New(c2, detail.Options{
		Workers:     opt.Workers,
		TrackGraph:  prev.Router.TG,
		AccessCache: prev.Router.AccessCache(),
		AccessHints: func(pi int) *pinaccess.AccessPath { return hints[pi] },
	})
	as := r2.AccessStats()
	prepSpan.End(obs.Int("access_catalogues", as.Catalogues),
		obs.Int("access_catalogues_reused", as.CataloguesReused),
		obs.Int("access_hinted", as.Hinted),
		obs.Int("access_reserved", as.Reserved))
	st.PrepTime = time.Since(pStart)

	dStart := time.Now()
	dirtySpan := root.Child("eco.dirty")
	dirty, byRule := dirtySet(prev, c2, nm, r2, &delta)
	st.DirtyByRule = byRule
	dirtySpan.End(obs.Int("dirty", len(dirty)),
		obs.Int("dirty_added", byRule[0]), obs.Int("dirty_moved", byRule[1]),
		obs.Int("dirty_unrouted", byRule[2]), obs.Int("dirty_access", byRule[3]),
		obs.Int("dirty_impact", byRule[4]))
	st.DirtyTime = time.Since(dStart)
	st.DirtyNets = len(dirty)
	if len(c2.Nets) > 0 {
		st.DirtyFraction = float64(len(dirty)) / float64(len(c2.Nets))
	}

	if opt.EcoThreshold >= 0 && st.DirtyFraction > opt.EcoThreshold {
		st.FellBack = true
		root.Event("eco.fallback", obs.F64("dirty_fraction", st.DirtyFraction),
			obs.F64("threshold", opt.EcoThreshold))
		res := core.RouteBonnRoute(ctx, c2, opt)
		cancelled = res.Cancelled
		st.Total = time.Since(start)
		return res, st, nil
	}

	res := &core.Result{Flow: "BR+eco", Chip: c2, Router: r2}

	// Replay: every clean surviving net's committed wiring, verbatim.
	rStart := time.Now()
	rSpan := root.Child("eco.replay")
	inDirty := make(map[int]bool, len(dirty))
	for _, ni := range dirty {
		inDirty[ni] = true
	}
	for newNi, oldNi := range nm.NewToOld {
		if oldNi < 0 || inDirty[newNi] {
			continue
		}
		r2.ReplayNet(newNi, prev.Router.ExportNet(oldNi))
		st.ReplayedNets++
	}
	rSpan.End(obs.Int("replayed", st.ReplayedNets))
	st.ReplayTime = time.Since(rStart)

	// Incremental global routing: surviving nets keep their trees (and
	// their loads become the fixed base); only added nets, moved-pin
	// nets and previously tree-less nets are re-priced.
	if prev.Assignment != nil && ctx.Err() == nil {
		gStart := time.Now()
		gSpan := root.Child("eco.global")
		g2 := core.BuildGlobalGraph(c2, opt.TileTracks)
		capest.Compute(c2, r2.TG, g2, capest.Params{})
		capest.ReduceForIntraTile(c2, g2)
		E := g2.NumEdges()
		if E != prev.Assignment.Graph.NumEdges() {
			return nil, nil, fmt.Errorf("incremental: global grid changed across delta (%d vs %d edges)",
				E, prev.Assignment.Graph.NumEdges())
		}
		specs := core.NetSpecs(c2, g2)

		movedNew := make(map[int]bool, len(delta.MovePins))
		for _, m := range delta.MovePins {
			if ni := nm.OldToNew[m.Net]; ni >= 0 {
				movedNew[ni] = true
			}
		}
		trees := make([][]int32, len(c2.Nets))
		extras := make([][]float32, len(c2.Nets))
		widths := make([]float64, len(c2.Nets))
		base := make([]float64, E)
		var needTree []int
		for newNi := range c2.Nets {
			widths[newNi] = specs[newNi].Width
			oldNi := nm.NewToOld[newNi]
			if oldNi < 0 || movedNew[newNi] || len(prev.Assignment.Trees[oldNi]) == 0 {
				needTree = append(needTree, newNi)
				continue
			}
			trees[newNi] = prev.Assignment.Trees[oldNi]
			if prev.Assignment.Extras != nil {
				extras[newNi] = prev.Assignment.Extras[oldNi]
			}
			for i, e := range trees[newNi] {
				base[e] += widths[newNi]
				if extras[newNi] != nil {
					base[e] += float64(extras[newNi][i])
				}
			}
		}
		rr := sharing.RouteRestricted(g2, specs, base, needTree)
		for i, ni := range needTree {
			trees[ni] = rr.Trees[i]
		}
		st.RepricedEdges = rr.RepricedEdges

		loads := make([]float64, E)
		gs := &core.GlobalStats{OracleCalls: int64(rr.OracleCalls)}
		if prev.Global != nil {
			// The λ certificate describes the previous full solve; the
			// restricted solve does not recompute it.
			gs.Lambda = prev.Global.Lambda
			gs.LambdaHistory = prev.Global.LambdaHistory
		}
		gs.PerNetLength = make([]int64, len(c2.Nets))
		gs.PerNetVias = make([]int, len(c2.Nets))
		for ni := range trees {
			if len(trees[ni]) == 0 {
				gs.Unrouted++
			}
			edges := make([]int, len(trees[ni]))
			for i, e := range trees[ni] {
				edges[i] = int(e)
				loads[e] += widths[ni]
				if extras[ni] != nil {
					loads[e] += float64(extras[ni][i])
				}
			}
			gs.PerNetLength[ni] = steiner.TreeLength(g2, edges)
			gs.PerNetVias[ni] = steiner.CountVias(g2, edges)
		}
		for e := 0; e < E; e++ {
			if loads[e] > g2.Cap[e]+1e-9 {
				gs.Overflowed++
			}
		}
		gs.Total = time.Since(gStart)
		res.Global = gs
		res.Assignment = &core.GlobalAssignment{
			Graph: g2, Trees: trees, Extras: extras, Widths: widths, Loads: loads,
		}
		r2.SetGlobalCorridors(g2, trees)
		gSpan.End(obs.Int("repriced_edges", rr.RepricedEdges),
			obs.Int("oracle_calls", rr.OracleCalls),
			obs.Int("overflowed", gs.Overflowed))
		st.GlobalTime = time.Since(gStart)
	}

	// Detail: only the dirty set searches; replayed wiring participates
	// as obstacles and rip-up victims.
	dtStart := time.Now()
	dtSpan := root.Child("eco.detail", obs.Int("nets", len(dirty)))
	res.Detail = r2.RouteNets(obs.ContextWithSpan(ctx, dtSpan), dirty)
	dtSpan.End(obs.Int("routed", res.Detail.Routed),
		obs.Int("failed", res.Detail.Failed),
		obs.Int("ripups", res.Detail.RipupEvents))
	res.DetailTime = time.Since(dtStart)
	st.DetailTime = res.DetailTime
	if res.Detail.Cancelled {
		res.Cancelled = true
	}

	cStart := time.Now()
	clSpan := root.Child("eco.cleanup")
	res.CleanupFixed = core.Cleanup(obs.ContextWithSpan(ctx, clSpan), r2, 2)
	clSpan.End(obs.Int("fixed", res.CleanupFixed))
	res.CleanupTime = time.Since(cStart)
	st.CleanupTime = res.CleanupTime

	res.Finalize(ctx, time.Since(start))
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	cancelled = res.Cancelled
	st.Total = time.Since(start)
	return res, st, nil
}

// dirtySet decides which nets of the mutated chip must be re-routed.
// A net is dirty when any of these hold (DESIGN.md §10):
//
//  1. it was added by the delta;
//  2. one of its pins moved;
//  3. it survived but had no committed route in prev (unrouted nets
//     always get another chance);
//  4. its fresh pin-access paths differ geometrically from the previous
//     run's (the delta changed the space near a pin, a catalogue class,
//     or the previous run replaced the reservation mid-flight);
//  5. any of its committed shapes or pins lies within the interaction
//     margin of delta-added geometry: new blockages, new nets' pin metal,
//     moved pins' new metal, and the access stubs the fresh router
//     actually reserved for those pins (known exactly, so no theoretical
//     reach is needed).
//
// Removed nets only free space, so removal alone dirties nothing —
// neighbors of vanished wiring stay legal (rule 4 still catches access
// reservations that shift because reserved stubs disappeared).
//
// The returned slice is sorted; everything here depends only on
// (prev, delta), never on worker count.
func dirtySet(prev *core.Result, c2 *chip.Chip, nm *NetMap, r2 *detail.Router, d *Delta) ([]int, [5]int) {
	r1 := prev.Router
	dirty := make(map[int]int) // net -> first rule (1-based) that caught it

	for newNi, oldNi := range nm.NewToOld {
		if oldNi < 0 {
			dirty[newNi] = 1 // rule 1
			continue
		}
		if !r1.NetStats(oldNi).Routed {
			dirty[newNi] = 3 // rule 3
		}
	}
	for _, m := range d.MovePins {
		if ni := nm.OldToNew[m.Net]; ni >= 0 && dirty[ni] == 0 {
			dirty[ni] = 2 // rule 2
		}
	}

	// Rule 4: access drift.
	for newNi, oldNi := range nm.NewToOld {
		if oldNi < 0 || dirty[newNi] != 0 {
			continue
		}
		for k := range c2.Nets[newNi].Pins {
			if !sameAccess(r1.AccessPath(oldNi, k), r2.AccessPath(newNi, k)) {
				dirty[newNi] = 4
				break
			}
		}
	}

	// Rule 5: impact region of added geometry. The geometry a new or
	// moved pin adds to the space is its metal plus the access stub the
	// fresh router actually reserved for it — both are known exactly (r2
	// committed them at construction), so the impact is their rects
	// expanded by the interaction margin, not a theoretical reach.
	margin := r2.InteractionMargin()
	var impact []geom.Rect
	stubImpact := func(newNi, k int) {
		ap := r2.AccessPath(newNi, k)
		if ap == nil || len(ap.Points) == 0 {
			return
		}
		bb := geom.Rect{XMin: ap.End.X, YMin: ap.End.Y, XMax: ap.End.X, YMax: ap.End.Y}
		for _, p := range ap.Points {
			bb.XMin = min(bb.XMin, p.X)
			bb.YMin = min(bb.YMin, p.Y)
			bb.XMax = max(bb.XMax, p.X)
			bb.YMax = max(bb.YMax, p.Y)
		}
		// Points are stick coordinates; pad by the stub metal's extent.
		lr := &c2.Deck.Layers[ap.Layer]
		pad := lr.MinWidth/2 + lr.LineEndSpacing
		impact = append(impact, bb.Expanded(pad+margin))
	}
	pinImpact := func(newNi, k int) {
		p := &c2.Pins[c2.Nets[newNi].Pins[k]]
		for _, s := range p.Shapes {
			impact = append(impact, s.Rect.Expanded(margin))
		}
		stubImpact(newNi, k)
	}
	for _, b := range d.AddBlockages {
		impact = append(impact, b.Rect.Expanded(margin))
	}
	for newNi, oldNi := range nm.NewToOld {
		if oldNi >= 0 {
			continue
		}
		for k := range c2.Nets[newNi].Pins {
			pinImpact(newNi, k)
		}
	}
	for _, m := range d.MovePins {
		if newNi := nm.OldToNew[m.Net]; newNi >= 0 {
			pinImpact(newNi, m.Pin)
		}
	}
	if len(impact) > 0 {
		hits := func(r geom.Rect) bool {
			for _, ir := range impact {
				if !ir.Intersection(r).Empty() {
					return true
				}
			}
			return false
		}
		for newNi, oldNi := range nm.NewToOld {
			if oldNi < 0 || dirty[newNi] != 0 {
				continue
			}
			found := false
			for _, sr := range r1.CommittedShapes(oldNi) {
				if hits(sr.Shape.Rect) {
					found = true
					break
				}
			}
			if !found {
				for _, pi := range c2.Nets[newNi].Pins {
					for _, s := range c2.Pins[pi].Shapes {
						if hits(s.Rect) {
							found = true
							break
						}
					}
					if found {
						break
					}
				}
			}
			if found {
				dirty[newNi] = 5
			}
		}
	}

	var byRule [5]int
	out := make([]int, 0, len(dirty))
	for ni, rule := range dirty {
		out = append(out, ni)
		byRule[rule-1]++
	}
	sort.Ints(out)
	return out, byRule
}

// sameAccess compares two access paths geometrically.
func sameAccess(a, b *pinaccess.AccessPath) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Layer != b.Layer || a.End != b.End || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}
