package main

import (
	"math/rand"
	"time"

	"bonnroute/internal/blockgrid"
	"bonnroute/internal/chip"
	"bonnroute/internal/detail"
	"bonnroute/internal/drc"
	"bonnroute/internal/fastgrid"
	"bonnroute/internal/geom"
	"bonnroute/internal/pinaccess"
	"bonnroute/internal/shapegrid"
	"bonnroute/internal/steiner"
)

// Kernel probes time single public calls of the layers below the stage
// ledger, on the workload's first chip after its ledger ran. They are
// unit costs: what one space build, one catalogue, one Steiner tree,
// one violation scan, one net reroute costs on this chip family.

const (
	probeNets = 32 // nets sampled by the per-net probes
	probePins = 64 // pins sampled by the blockage-grid probe
)

// runProbes runs every probe under one "probe" root span. lr is the
// first chip's finished ledger run; the probes that mutate its router
// run last, after everything that reads it.
func runProbes(rec *recorder, m *metrics, c *chip.Chip, lr *ledgerRun, seed int64, workers int) {
	root := rec.begin("probe", -1, -1)
	defer rec.end(root)
	r := lr.res.Router
	rng := rand.New(rand.NewSource(seed))
	pitch := c.Deck.Layers[0].Pitch

	// The four parts of detail.New that can be called on their own.
	var space *drc.Space
	spaceT := rec.time("probe.drc.space_build", root, -1, func() { space = buildSpace(c) })
	gridT := rec.time("probe.fastgrid.new", root, -1, func() { fastgrid.New(space, r.TG, c.WireTypes) })
	classes := distinctClasses(c, pitch)
	catT := rec.time("probe.pinaccess.build", root, -1, func() {
		for _, ci := range classes {
			pinaccess.BuildCatalogue(c, r.TG, ci, pinaccess.Params{Radius: 4 * pitch})
		}
	})
	m.set("drc.space_build_s", sec(spaceT))
	m.set("fastgrid.new_s", sec(gridT))
	m.set("pinaccess.build_ms_per_class", ratio(ms(catT), float64(len(classes))))
	m.set("detail.new_other_s", sec(lr.stages.detailNew-spaceT-gridT-r.AccessStats().CatalogueTime))
	m.set("blockgrid.search_us", probeBlockgrid(rec, root, c, r, space, rng))

	pcUS, exactUS := probeSteiner(rec, root, lr)
	m.set("steiner.pc_us_per_net", pcUS)
	m.set("steiner.exact_us_per_net", exactUS)

	// The two factors of core.Cleanup, and the audit behind Finalize.
	m.set("drc.violating_pairs_s", sec(rec.time("probe.drc.violating_pairs", root, -1, func() {
		r.Space.ViolatingNetPairs(c.Area)
	})))
	m.set("drc.audit_s", sec(rec.time("probe.drc.audit", root, -1, func() {
		r.Space.Audit(c.Area, routedNetPins(c, r))
	})))

	routed := routedNets(c, r)
	m.set("detail.replay_net_us", probeReplay(rec, root, c, r, routed, workers))

	// Mutates the finished router: last.
	rng.Shuffle(len(routed), func(i, j int) { routed[i], routed[j] = routed[j], routed[i] })
	var rerouteMS []float64
	for _, ni := range routed[:min(probeNets, len(routed))] {
		rerouteMS = append(rerouteMS, ms(rec.time("probe.detail.reroute_net", root, ni, func() {
			r.Unroute(ni)
			r.RouteNet(ni, 1)
		})))
	}
	m.set("detail.reroute_net_ms", median(rerouteMS))
}

// buildSpace is the routing-space part of detail.New: an empty space
// plus the chip's fixed geometry (blockages and pins).
func buildSpace(c *chip.Chip) *drc.Space {
	dirs := make([]geom.Direction, c.NumLayers())
	for z := range dirs {
		dirs[z] = c.Dir(z)
	}
	space := drc.NewSpace(c.Deck, c.Area, dirs)
	for _, o := range c.AllObstacles() {
		space.AddObstacle(o.Layer, o.Rect)
	}
	for pi := range c.Pins {
		p := &c.Pins[pi]
		for _, s := range p.Shapes {
			space.AddPin(s.Layer, int32(p.Net), s.Rect)
		}
	}
	return space
}

// distinctClasses returns one representative cell per circuit class.
func distinctClasses(c *chip.Chip, pitch int) []int {
	seen := map[string]bool{}
	var out []int
	for ci := range c.Cells {
		if key := pinaccess.ClassKey(c, ci, pitch); !seen[key] {
			seen[key] = true
			out = append(out, ci)
		}
	}
	return out
}

func routedNets(c *chip.Chip, r *detail.Router) []int {
	var out []int
	for ni := range c.Nets {
		if r.NetStats(ni).Routed {
			out = append(out, ni)
		}
	}
	return out
}

// routedNetPins is the pin list the full-chip audit takes.
func routedNetPins(c *chip.Chip, r *detail.Router) map[int32][]drc.LayerRect {
	out := map[int32][]drc.LayerRect{}
	for _, ni := range routedNets(c, r) {
		for _, pi := range c.Nets[ni].Pins {
			s := c.Pins[pi].Shapes[0]
			out[int32(ni)] = append(out[int32(ni)], drc.LayerRect{Rect: s.Rect, Layer: s.Layer})
		}
	}
	return out
}

// probeBlockgrid times τ-feasible blockage-grid searches from sampled
// pin centres to the on-track end of the access path the router
// reserved for them, against the fixed geometry of other nets inflated
// by the wiring clearance — the search dynamic pin access runs. It
// returns the median in µs.
func probeBlockgrid(rec *recorder, root int, c *chip.Chip, r *detail.Router, space *drc.Space, rng *rand.Rand) float64 {
	var samples []float64
	for _, pi := range rng.Perm(len(c.Pins)) {
		if len(samples) == probePins {
			break
		}
		p := &c.Pins[pi]
		slot := -1
		for k, q := range c.Nets[p.Net].Pins {
			if q == pi {
				slot = k
			}
		}
		ap := r.AccessPath(p.Net, slot)
		if ap == nil {
			continue
		}
		z := ap.Layer
		from, to := p.Shapes[0].Rect.Center(), ap.End
		if from == to {
			continue
		}
		lr := &c.Deck.Layers[z]
		tau := lr.MinSegLen
		infl := lr.MinWidth/2 + lr.Spacing[0].Spacing
		win := geom.R(from.X, from.Y, to.X, to.Y).Expanded(6 * tau).Intersection(c.Area)
		var obst []geom.Rect
		space.Wiring[z].Query(win, func(sh shapegrid.Shape) bool {
			if o := sh.Rect.Expanded(infl); sh.Net != int32(p.Net) && !o.ContainsClosed(from) && !o.ContainsClosed(to) {
				obst = append(obst, o)
			}
			return true
		})
		samples = append(samples, us(rec.time("probe.blockgrid.search", root, pi, func() {
			blockgrid.Search(obst, from, to, tau, win)
		})))
	}
	return median(samples)
}

// probeSteiner times one tree per net from each global-routing oracle on
// the chip's capacity-estimated grid under plain length costs (half a
// tile per via, as the solver charges): the unit cost the paper quotes
// as ≈0.3 ms per net. Exact-oracle calls that fell back to Path
// Composition (too many terminal groups) are left out of its mean.
func probeSteiner(rec *recorder, root int, lr *ledgerRun) (pcUS, exactUS float64) {
	g := lr.graph
	cost := func(e int) float64 {
		if g.IsVia(e) {
			return float64(g.TileW) / 2
		}
		return float64(g.EdgeLength(e))
	}
	pc := steiner.NewOracle(g)
	ex := steiner.NewExact(g, 0)
	var pcT, exT time.Duration
	exN := 0
	id := rec.begin("probe.steiner", root, -1)
	for i := range lr.specs {
		terms := lr.specs[i].Terminals
		t0 := time.Now()
		pc.Tree(cost, terms)
		pcT += time.Since(t0)
		t0 = time.Now()
		if _, exact, _ := ex.Tree(cost, terms); exact {
			exT += time.Since(t0)
			exN++
		}
	}
	rec.end(id)
	return ratio(us(pcT), float64(len(lr.specs))), ratio(us(exT), float64(exN))
}

// probeReplay exports every routed net of the finished router and
// replays it onto a freshly built one, as the ECO engine does for clean
// nets; nets whose access paths the fresh router reserved differently
// are skipped, as the engine's dirty-set rule would. Mean µs per net.
func probeReplay(rec *recorder, root int, c *chip.Chip, r *detail.Router, routed []int, workers int) float64 {
	fresh := detail.New(c, detail.Options{Workers: workers})
	var total time.Duration
	n := 0
	id := rec.begin("probe.detail.replay", root, -1)
	for _, ni := range routed {
		if !sameAccessPaths(c, r, fresh, ni) {
			continue
		}
		t0 := time.Now()
		fresh.ReplayNet(ni, r.ExportNet(ni))
		total += time.Since(t0)
		n++
	}
	rec.end(id)
	return ratio(us(total), float64(n))
}

func sameAccessPaths(c *chip.Chip, a, b *detail.Router, ni int) bool {
	for k := range c.Nets[ni].Pins {
		pa, pb := a.AccessPath(ni, k), b.AccessPath(ni, k)
		if (pa == nil) != (pb == nil) {
			return false
		}
		if pa == nil {
			continue
		}
		if pa.Layer != pb.Layer || pa.End != pb.End || len(pa.Points) != len(pb.Points) {
			return false
		}
		for i := range pa.Points {
			if pa.Points[i] != pb.Points[i] {
				return false
			}
		}
	}
	return true
}
