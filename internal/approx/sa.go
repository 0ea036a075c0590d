package approx

import (
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/rtree"
)

// SA computes an approximate CCA matching with the Service-provider
// Approximation (§4.1): providers are grouped along the Hilbert curve
// into δ-diagonal clusters, each cluster is replaced by one
// capacity-weighted-centroid representative carrying the summed capacity,
// an exact concise matching is solved between the representatives Q′ and
// the full customer tree P (via IDA), and each group's share is refined
// into per-provider assignments. The assignment cost error is at most
// 2·γ·δ (Theorem 3).
func SA(providers []core.Provider, tree *rtree.Tree, opts Options) (*Result, error) {
	opts = opts.withDefaults(true)
	start := time.Now()

	// Phase 1: partition Q (§4.1).
	pts := make([]geo.Point, len(providers))
	for i, p := range providers {
		pts[i] = p.Pt
	}
	groups := hilbertGroups(pts, opts.Core.Space, opts.Delta)

	// One representative per group: capacity-weighted centroid with the
	// summed capacity.
	reps := make([]core.Provider, len(groups))
	for gi, g := range groups {
		gpts := make([]geo.Point, len(g.members))
		w := make([]float64, len(g.members))
		cap := 0
		for i, m := range g.members {
			gpts[i] = providers[m].Pt
			w[i] = float64(providers[m].Cap)
			cap += providers[m].Cap
		}
		reps[gi] = core.Provider{Pt: geo.Centroid(gpts, w), Cap: cap}
	}

	// Phase 2: concise matching between Q′ and P via IDA (§4.1).
	conciseStart := time.Now()
	concise, err := core.IDA(reps, tree, opts.Core)
	if err != nil {
		return nil, err
	}
	conciseTime := time.Since(conciseStart)

	// Phase 3: refinement (§4.3). The concise matching tells every group
	// which customers it serves; distribute them among the group's own
	// providers, each bounded by its own capacity q.k.
	refineStart := time.Now()
	perGroup := make([][]rtree.Item, len(groups))
	for _, pair := range concise.Pairs {
		perGroup[pair.Provider] = append(perGroup[pair.Provider], rtree.Item{
			ID: pair.CustomerID,
			Pt: pair.CustomerPt,
		})
	}
	var pairs []core.Pair
	for gi, g := range groups {
		// The concise IDA run above already observes Core.Ctx; poll it
		// between group refinements too, so a deadline lands within one
		// (small, δ-bounded) group instead of after the whole phase.
		if ctx := opts.Core.Ctx; ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if len(perGroup[gi]) == 0 {
			continue
		}
		members := make([]core.Provider, len(g.members))
		budgets := make([]int, len(g.members))
		for i, m := range g.members {
			members[i] = providers[m]
			budgets[i] = providers[m].Cap
		}
		var local []core.Pair
		refine(opts.Refinement, opts.Core.Metric, members, budgets, perGroup[gi], &local)
		for _, lp := range local {
			pairs = append(pairs, core.Pair{
				Provider:   g.members[lp.Provider],
				CustomerID: lp.CustomerID,
				CustomerPt: lp.CustomerPt,
				Dist:       lp.Dist,
			})
		}
	}
	refineTime := time.Since(refineStart)

	cost := 0.0
	for _, p := range pairs {
		cost += p.Dist
	}
	m := concise.Metrics
	m.CPUTime = time.Since(start)
	res := &Result{
		Result: core.Result{
			Pairs:   pairs,
			Cost:    cost,
			Size:    len(pairs),
			Metrics: m,
		},
		Groups:       len(groups),
		ConciseTime:  conciseTime,
		RefineTime:   refineTime,
		ErrorBound:   SABound(concise.Size, opts.Delta),
		ConciseEdges: concise.Metrics.SubgraphEdges,
	}
	return res, nil
}
