package core

import (
	"fmt"
	"time"

	"repro/internal/flowgraph"
	"repro/internal/hungarian"
	"repro/internal/rtree"
)

// maxHungarianCells caps the dense cost matrix the Hungarian reduction
// materializes — the very limitation §2.1 describes ("the matrix may not
// fit in main memory"). 64M float64 cells ≈ 512 MB.
const maxHungarianCells = 64 << 20

// HungarianAssign solves CCA with the classical Hungarian (Kuhn–Munkres)
// algorithm of §2.1 [8]: each provider is replicated once per unit of
// capacity, yielding a one-to-one assignment instance on a dense
// (Σ q.k)·|P| cost matrix. Exact, but Θ(n³) time and Θ(n·m) memory — the
// baseline the paper dismisses as "limited to small problem instances".
// It exists to reproduce that claim; use IDA for real workloads.
func HungarianAssign(providers []Provider, customers []rtree.Item, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	slots := 0
	for _, p := range providers {
		slots = flowgraph.AddCap(slots, p.Cap)
	}
	nc := len(customers)
	if slots == 0 || nc == 0 {
		return &Result{Metrics: Metrics{CPUTime: time.Since(start)}}, nil
	}
	// Divide rather than multiply: slots may be saturated at math.MaxInt.
	if slots > maxHungarianCells/nc {
		return nil, fmt.Errorf(
			"core: Hungarian reduction needs a %d x %d matrix (more than %d cells): exactly the blow-up §2.1 warns about — use IDA",
			slots, nc, maxHungarianCells)
	}

	// slotOwner maps a replicated row/column back to its provider.
	slotOwner := make([]int, 0, slots)
	for qi, p := range providers {
		for i := 0; i < p.Cap; i++ {
			slotOwner = append(slotOwner, qi)
		}
	}

	// Hungarian needs rows <= columns; orient the matrix accordingly.
	rowsAreCustomers := nc <= slots
	var rows, cols int
	if rowsAreCustomers {
		rows, cols = nc, slots
	} else {
		rows, cols = slots, nc
	}
	cost := make([][]float64, rows)
	for r := 0; r < rows; r++ {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		cost[r] = make([]float64, cols)
		for c := 0; c < cols; c++ {
			var qi, ci int
			if rowsAreCustomers {
				ci, qi = r, slotOwner[c]
			} else {
				qi, ci = slotOwner[r], c
			}
			cost[r][c] = opts.Metric.Dist(providers[qi].Pt, customers[ci].Pt)
		}
	}
	var cancel func() error
	if opts.Ctx != nil {
		cancel = opts.cancelled
	}
	assign, total, err := hungarian.SolveCancel(cost, cancel)
	if err != nil {
		return nil, err
	}

	pairs := make([]Pair, 0, rows)
	for r, c := range assign {
		var qi, ci int
		if rowsAreCustomers {
			ci, qi = r, slotOwner[c]
		} else {
			qi, ci = slotOwner[r], c
		}
		pairs = append(pairs, Pair{
			Provider:   qi,
			CustomerID: customers[ci].ID,
			CustomerPt: customers[ci].Pt,
			Dist:       opts.Metric.Dist(providers[qi].Pt, customers[ci].Pt),
		})
	}
	return &Result{
		Pairs: pairs,
		Cost:  total,
		Size:  len(pairs),
		Metrics: Metrics{
			SubgraphEdges:  slots * nc,
			FullGraphEdges: len(providers) * nc,
			CPUTime:        time.Since(start),
		},
	}, nil
}
