package core

import (
	"time"

	"repro/internal/flowgraph"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// SSPA solves CCA with the classical Successive Shortest Path Algorithm
// (§2.2) on the complete bipartite graph between Q and the in-memory
// customer set. It is the paper's main-memory baseline (Figure 8): exact,
// but it relaxes every one of the |Q|·|P| edges in each Dijkstra run and
// is therefore orders of magnitude slower than the incremental methods.
// The only error it can return is a mid-solve cancellation through
// Options.Ctx — precisely the solver you want a deadline on.
func SSPA(providers []Provider, customers []rtree.Item, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	span := obs.FromContext(opts.Ctx)
	build := span.StartChild("flowgraph-build")
	g := newFlowGraph(providers, true, opts)
	// Deferred so every exit — including mid-solve cancellation — hands
	// the Dijkstra scratch back to the pool.
	defer g.Release()
	custTotal := 0
	for _, c := range customers {
		cap := opts.CustomerCap(c.ID)
		g.AddCustomer(c.Pt, cap, c.ID, nil)
		custTotal = flowgraph.AddCap(custTotal, cap)
	}
	build.End()
	gamma := g.TotalCapacity()
	if custTotal < gamma {
		gamma = custTotal
	}
	done := 0
	aug := span.StartChild("augment")
	defer func() {
		aug.SetInt("iterations", int64(done))
		aug.End()
	}()
	for i := 0; i < gamma; i++ {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		g.BeginIteration()
		if _, _, ok := g.Search(); !ok {
			break // max flow reached early (possible with capacitated customers)
		}
		if err := g.Augment(); err != nil {
			break
		}
		done++
	}
	m := Metrics{
		FullGraphEdges: len(providers) * len(customers),
		Augments:       done,
		CPUTime:        time.Since(start),
	}
	res := finish(g, m)
	// SSPA's conceptual subgraph is the complete graph.
	res.Metrics.SubgraphEdges = res.Metrics.FullGraphEdges
	return res, nil
}
