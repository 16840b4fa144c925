// Package baseline implements the "industry standard router" (ISR)
// stand-in of the paper's evaluation (§5.3): a classical sequential
// architecture — net-at-a-time global routing with negotiation-based
// (history-cost) rip-up and reroute, greedy track assignment through
// uniform tracks, greedy pin access, and node-based maze routing. It is
// the comparator for Tables I and III; the architectural differences from
// BonnRoute (no resource sharing, no interval labelling, no fast grid, no
// conflict-free access, no track optimization) are exactly the paper's.
package baseline

import (
	"context"
	"time"

	"bonnroute/internal/chip"
	"bonnroute/internal/detail"
	"bonnroute/internal/grid"
	"bonnroute/internal/obs"
	"bonnroute/internal/steiner"
)

// GlobalOptions tune the sequential global router.
type GlobalOptions struct {
	// MaxIterations bounds the negotiation loop. Default 12.
	MaxIterations int
	// HistoryStep is the per-iteration history cost added to overflowed
	// edges. Default 0.5.
	HistoryStep float64
}

// GlobalResult carries the ISR-like global routing outcome.
type GlobalResult struct {
	// Trees[ni] holds the tree edges per net (nil when unrouted).
	Trees [][]int32
	// Iterations used by the negotiation loop.
	Iterations int
	// Overflowed is the number of edges above capacity at the end.
	Overflowed int
	// Cancelled reports that the negotiation loop stopped early because
	// the context was cancelled; Trees holds the partial state.
	Cancelled bool
	Runtime   time.Duration
}

// GlobalRoute runs the classical negotiated-congestion global router: all
// nets are routed one at a time by the Steiner oracle under congestion
// costs; edges that end up overloaded accumulate history cost and their
// nets are ripped and rerouted until clean or out of iterations.
//
// ctx carries cancellation (checked between negotiation iterations) and
// the parent span for per-iteration "negotiate.iter" events.
func GlobalRoute(ctx context.Context, g *grid.Graph, nets []GNet, opt GlobalOptions) *GlobalResult {
	if ctx == nil {
		ctx = context.Background()
	}
	span := obs.SpanFrom(ctx)
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 12
	}
	if opt.HistoryStep <= 0 {
		opt.HistoryStep = 0.5
	}
	start := time.Now()
	oracle := steiner.NewOracle(g)
	res := &GlobalResult{Trees: make([][]int32, len(nets))}

	load := make([]float64, g.NumEdges())
	history := make([]float64, g.NumEdges())

	cost := func(n *GNet) func(int) float64 {
		return func(e int) float64 {
			cap := g.Cap[e]
			if cap <= 0 || n.Width > cap {
				return -1
			}
			base := float64(g.EdgeLength(e)) + 1
			// Present congestion + accumulated history (negotiation).
			over := (load[e] + n.Width) / cap
			pen := 1.0
			if over > 0.8 {
				pen += 4 * (over - 0.8)
			}
			if load[e]+n.Width > cap {
				pen += 10 + 10*(load[e]+n.Width-cap)
			}
			return base*pen + base*history[e]
		}
	}

	route := func(ni int) {
		n := &nets[ni]
		edges, ok := oracle.Tree(cost(n), n.Terminals)
		if !ok {
			res.Trees[ni] = nil
			return
		}
		t := make([]int32, len(edges))
		for i, e := range edges {
			t[i] = int32(e)
			load[e] += n.Width
		}
		res.Trees[ni] = t
	}
	unroute := func(ni int) {
		for _, e := range res.Trees[ni] {
			load[e] -= nets[ni].Width
		}
		res.Trees[ni] = nil
	}

	for ni := range nets {
		route(ni)
	}
	for iter := 0; iter < opt.MaxIterations; iter++ {
		if ctx.Err() != nil {
			res.Cancelled = true
			break
		}
		res.Iterations = iter + 1
		// Collect overflowed edges and the nets using them. overNets is a
		// slice in net-ID order: reroute order feeds back into congestion,
		// so map iteration here would make results run-dependent.
		var overNets []int
		overEdges := 0
		for e := 0; e < g.NumEdges(); e++ {
			if load[e] > g.Cap[e]+1e-9 {
				overEdges++
				history[e] += opt.HistoryStep
			}
		}
		if overEdges == 0 {
			break
		}
		for ni := range nets {
			for _, e := range res.Trees[ni] {
				if load[int(e)] > g.Cap[e]+1e-9 {
					overNets = append(overNets, ni)
					break
				}
			}
		}
		for _, ni := range overNets {
			unroute(ni)
		}
		for _, ni := range overNets {
			route(ni)
		}
		span.Event("negotiate.iter",
			obs.Int("iter", res.Iterations),
			obs.Int("overflowed_edges", overEdges),
			obs.Int("rerouted_nets", len(overNets)))
	}
	for e := 0; e < g.NumEdges(); e++ {
		if load[e] > g.Cap[e]+1e-9 {
			res.Overflowed++
		}
	}
	res.Runtime = time.Since(start)
	return res
}

// GNet is the baseline's net description (it mirrors sharing.NetSpec
// without importing the resource-sharing package).
type GNet struct {
	ID        int
	Terminals [][]int
	Width     float64
}

// DetailOptions returns the detail-engine configuration that turns it
// into the ISR-like detailed router. The edge costs (β, γ) are the
// detailed router's own; only the four ablation switches differ.
func DetailOptions(workers int) detail.Options {
	return detail.Options{
		Workers:       workers,
		NodeSearch:    true,
		NoFastGrid:    true,
		UniformTracks: true,
		GreedyAccess:  true,
	}
}

// NewDetail builds the ISR-like detailed router for a chip.
func NewDetail(c *chip.Chip, workers int) *detail.Router {
	return detail.New(c, DetailOptions(workers))
}
