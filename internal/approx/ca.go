package approx

import (
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/hilbert"
	"repro/internal/rtree"
)

// caPart is a δ-bounded piece of P produced by the traversal: either an
// R-tree entry (points fetched lazily at refinement) or a conceptual
// piece of an oversized leaf (points already in hand).
type caPart struct {
	mbr   geo.Rect
	count int
	entry rtree.Entry  // valid when items == nil
	items []rtree.Item // conceptual leaf-split pieces
}

// caGroup is a merged hyper-entry: one customer representative.
type caGroup struct {
	mbr   geo.Rect
	parts []caPart
	count int
}

// CA computes an approximate CCA matching with the Customer
// Approximation (§4.2): the R-tree of P is traversed top-down collecting
// entries whose MBR diagonal is at most δ (conceptually splitting
// oversized leaves), the entries are merged into δ-bounded hyper-entries,
// each hyper-entry becomes one weighted customer representative at its
// MBR center, an exact concise matching between Q and the representatives
// P′ is solved in memory (IDA with customer capacities and unbounded
// per-pair multiplicity), and each group's instances are refined into
// per-customer assignments. The assignment cost error is at most γ·δ
// (Theorem 4).
func CA(providers []core.Provider, tree *rtree.Tree, opts Options) (*Result, error) {
	opts = opts.withDefaults(false)
	start := time.Now()

	// Phase 1a: δ-bounded traversal of the R-tree (§4.2).
	parts, err := caPartition(tree, opts.Delta)
	if err != nil {
		return nil, err
	}
	// Phase 1b: merge entries into hyper-entries along the Hilbert curve.
	groups := caMerge(parts, opts.Core.Space, opts.Delta)

	// Representatives: MBR center, weight = points in the group.
	reps := make([]rtree.Item, len(groups))
	weights := make([]int, len(groups))
	totalWeight := 0
	for gi, g := range groups {
		reps[gi] = rtree.Item{ID: int64(gi), Pt: g.mbr.Center()}
		weights[gi] = g.count
		totalWeight += g.count
	}

	// Phase 2: concise matching between Q and P′, in memory (§4.2).
	conciseStart := time.Now()
	repTree, err := memTree(reps)
	if err != nil {
		return nil, err
	}
	copts := opts.Core
	copts.CustomerCap = func(id int64) int { return weights[id] }
	copts.TotalCustomerCap = totalWeight
	copts.PairCapacity = math.MaxInt32
	concise, err := core.IDA(providers, repTree, copts)
	if err != nil {
		return nil, err
	}
	conciseTime := time.Since(conciseStart)

	// Phase 3: refinement (§4.3). For each group, distribute its actual
	// customers among the providers that received instances of its
	// representative, respecting the per-provider instance counts.
	refineStart := time.Now()
	instances := make([]map[int]int, len(groups)) // group -> provider -> count
	for _, pair := range concise.Pairs {
		gi := int(pair.CustomerID)
		if instances[gi] == nil {
			instances[gi] = make(map[int]int)
		}
		instances[gi][pair.Provider]++
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
		if len(instances[gi]) == 0 {
			continue
		}
		items, err := caItems(tree, g)
		if err != nil {
			return nil, err
		}
		provIdx := make([]int, 0, len(instances[gi]))
		for q := range instances[gi] {
			provIdx = append(provIdx, q)
		}
		sort.Ints(provIdx)
		members := make([]core.Provider, len(provIdx))
		budgets := make([]int, len(provIdx))
		for i, q := range provIdx {
			members[i] = providers[q]
			budgets[i] = instances[gi][q]
		}
		var local []core.Pair
		refine(opts.Refinement, opts.Core.Metric, members, budgets, items, &local)
		for _, lp := range local {
			pairs = append(pairs, core.Pair{
				Provider:   provIdx[lp.Provider],
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
	if buf := tree.Buffer(); buf != nil {
		// CA's I/O comes from the partitioning traversal and the
		// refinement leaf reads, not the in-memory concise matching.
		m.IO = buf.Stats()
	}
	return &Result{
		Result: core.Result{
			Pairs:   pairs,
			Cost:    cost,
			Size:    len(pairs),
			Metrics: m,
		},
		Groups:       len(groups),
		ConciseTime:  conciseTime,
		RefineTime:   refineTime,
		ErrorBound:   CABound(concise.Size, caGroupDelta(groups, opts.Delta)),
		ConciseEdges: concise.Metrics.SubgraphEdges,
	}, nil
}

// caPartition walks the R-tree collecting δ-bounded parts: entries whose
// MBR diagonal fits are taken whole; directory entries that do not fit
// are descended; oversized leaves are conceptually split in halves along
// their longest dimension until every piece fits (§4.2).
func caPartition(tree *rtree.Tree, delta float64) ([]caPart, error) {
	root, err := tree.RootEntry()
	if err != nil {
		return nil, err
	}
	if root.Count == 0 {
		return nil, nil
	}
	var parts []caPart
	var walk func(e rtree.Entry) error
	walk = func(e rtree.Entry) error {
		if e.MBR.Diagonal() <= delta {
			parts = append(parts, caPart{mbr: e.MBR, count: e.Count, entry: e})
			return nil
		}
		if e.Leaf {
			items, err := tree.LeafItems(e)
			if err != nil {
				return err
			}
			splitConceptual(e.MBR, items, delta, &parts)
			return nil
		}
		kids, err := tree.Children(e)
		if err != nil {
			return err
		}
		for _, k := range kids {
			if err := walk(k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return parts, nil
}

// splitConceptual recursively halves rect along its longest dimension
// until each piece's diagonal fits delta, emitting non-empty pieces. A
// rectangle whose half no longer shrinks is emitted as it is: once the
// spacing of float64 values at its coordinates exceeds delta, the
// midpoint rounds onto an edge and halving would recur forever.
func splitConceptual(rect geo.Rect, items []rtree.Item, delta float64, out *[]caPart) {
	if len(items) == 0 {
		return
	}
	if rect.Diagonal() <= delta {
		*out = append(*out, caPart{mbr: rect, count: len(items), items: items})
		return
	}
	a, b := rect.SplitLongest()
	if a == rect || b == rect {
		*out = append(*out, caPart{mbr: rect, count: len(items), items: items})
		return
	}
	var left, right []rtree.Item
	// Assign boundary points to the left half only, so pieces partition
	// the leaf.
	vertical := rect.Max.X-rect.Min.X >= rect.Max.Y-rect.Min.Y
	for _, it := range items {
		if (vertical && it.Pt.X <= a.Max.X) || (!vertical && it.Pt.Y <= a.Max.Y) {
			left = append(left, it)
		} else {
			right = append(right, it)
		}
	}
	splitConceptual(a, left, delta, out)
	splitConceptual(b, right, delta, out)
}

// caMerge packs δ-bounded parts into hyper-entries whose union MBR still
// fits δ, following the parts' Hilbert order (§4.2's merge step).
func caMerge(parts []caPart, space geo.Rect, delta float64) []caGroup {
	centers := make([]geo.Point, len(parts))
	for i, p := range parts {
		centers[i] = p.mbr.Center()
	}
	order := hilbert.SortByKey(centers, space)
	var groups []caGroup
	for _, idx := range order {
		p := parts[idx]
		placed := false
		for gi := len(groups) - 1; gi >= 0 && gi >= len(groups)-4; gi-- {
			u := groups[gi].mbr.Union(p.mbr)
			if u.Diagonal() <= delta {
				groups[gi].mbr = u
				groups[gi].parts = append(groups[gi].parts, p)
				groups[gi].count += p.count
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, caGroup{mbr: p.mbr, parts: []caPart{p}, count: p.count})
		}
	}
	return groups
}

// caGroupDelta is the δ that Theorem 4 holds for: delta itself, unless
// a group's diagonal exceeds it (a part splitConceptual could not
// shrink), in which case the largest group diagonal.
func caGroupDelta(groups []caGroup, delta float64) float64 {
	for _, g := range groups {
		delta = max(delta, g.mbr.Diagonal())
	}
	return delta
}

// caItems materializes the actual customers of a group, reading R-tree
// subtrees for entry parts and reusing in-hand items for conceptual ones.
func caItems(tree *rtree.Tree, g caGroup) ([]rtree.Item, error) {
	var out []rtree.Item
	for _, p := range g.parts {
		if p.items != nil {
			out = append(out, p.items...)
			continue
		}
		items, err := tree.CollectItems(p.entry)
		if err != nil {
			return nil, err
		}
		out = append(out, items...)
	}
	return out, nil
}
