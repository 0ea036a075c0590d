package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/rtree"
)

// RIA solves CCA with the Range Incremental Algorithm (§3.1, Algorithm
// 2). It seeds Esub with a T-range search around every provider
// (T starts at θ) and runs SSPA iterations on the subgraph; whenever the
// shortest path fails the Theorem 1 test (cost > T − τmax), the range is
// extended by θ through annular searches and the iteration retried.
func RIA(providers []Provider, tree *rtree.Tree, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	io := snapshotIO(tree.Buffer())
	span := obs.FromContext(opts.Ctx)

	build := span.StartChild("flowgraph-build")
	g := newFlowGraph(providers, false, opts)
	// Deferred so every exit — including mid-solve cancellation — hands
	// the Dijkstra scratch back to the pool.
	defer g.Release()
	custIdx := make(map[int64]int32)
	m := Metrics{FullGraphEdges: len(providers) * tree.Size()}

	ensure := func(it rtree.Item) int32 {
		if idx, ok := custIdx[it.ID]; ok {
			return idx
		}
		idx := g.AddCustomer(it.Pt, opts.CustomerCap(it.ID), it.ID, nil)
		custIdx[it.ID] = idx
		return idx
	}
	// addAnnulus inserts all edges (q, p) with dist in (lo, hi].
	addAnnulus := func(lo, hi float64) error {
		for q := range providers {
			m.RangeSearches++
			items, err := tree.AnnularRange(providers[q].Pt, lo, hi)
			if err != nil {
				return err
			}
			for _, it := range items {
				g.AddEdge(int32(q), ensure(it), opts.Metric.Dist(providers[q].Pt, it.Pt))
			}
		}
		return nil
	}

	gamma, err := gammaFor(providers, tree, opts)
	if err != nil {
		return nil, err
	}

	// Under a non-Euclidean metric the annular searches still prune by
	// Euclidean distance, so an annulus may contain edges costing more
	// than T — harmless extras. What keeps RIA exact is the converse:
	// every *undiscovered* edge has Euclidean length > T, hence metric
	// cost > T (the geo.Metric lower-bound contract), so T still
	// lower-bounds Φ(E−Esub) in the Theorem 1 test below.
	T := opts.Theta
	if err := addAnnulus(-1, T); err != nil {
		return nil, err
	}
	build.End()
	maxEdges := len(providers) * tree.Size()
	done := 0
	aug := span.StartChild("augment")
	defer func() {
		aug.SetInt("iterations", int64(done))
		aug.End()
	}()
	for done < gamma {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		g.BeginIteration()
		_, cost, ok := g.Search()
		complete := g.EdgeCount() >= maxEdges
		if ok && (complete || cost <= T-g.TauMax()+validityEps) {
			if err := g.Augment(); err != nil {
				return nil, err
			}
			done++
			continue
		}
		if complete {
			break // Esub is the full graph and no augmenting path remains
		}
		// Extend the search range by θ (Lines 12-15).
		if err := addAnnulus(T, T+opts.Theta); err != nil {
			return nil, err
		}
		T += opts.Theta
	}

	m.Augments = done
	m.CPUTime = time.Since(start)
	m.IO = io.delta()
	m.IOTime = m.IO.IOTime()
	return finish(g, m), nil
}
