// Package approx implements the paper's approximate CCA methods (§4):
// Service-provider Approximation (SA) and Customer Approximation (CA),
// with the NN-based and exclusive-NN refinement heuristics (§4.3) and the
// theoretical error bounds of Theorems 3 and 4.
//
// Both methods follow the same three phases:
//
//  1. Partitioning: group the chosen side into clusters whose MBR
//     diagonal is at most δ (Hilbert-order greedy grouping for SA; an
//     R-tree entry traversal with conceptual leaf splitting and
//     hyper-entry merging for CA).
//  2. Concise matching: solve a small *exact* CCA problem (via IDA) over
//     one weighted representative per group.
//  3. Refinement: expand each group's concise assignment into per-point
//     assignments with a cheap heuristic.
//
// The assignment cost error is bounded by 2·γ·δ for SA (Theorem 3) and
// γ·δ for CA (Theorem 4), so δ tunes the accuracy/time trade-off.
package approx

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/hilbert"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Refinement selects the heuristic used to expand the concise matching.
type Refinement int

const (
	// RefineNN is the NN-based refinement (§4.3): providers take turns,
	// each claiming its nearest unassigned customer.
	RefineNN Refinement = iota
	// RefineExclusive is the exclusive NN refinement (§4.3): the
	// globally closest (provider, customer) pair is committed first.
	RefineExclusive
)

// String implements fmt.Stringer.
func (r Refinement) String() string {
	switch r {
	case RefineNN:
		return "NN"
	case RefineExclusive:
		return "exclusive-NN"
	default:
		return fmt.Sprintf("Refinement(%d)", int(r))
	}
}

// Options configures SA and CA.
type Options struct {
	// Delta is the maximum group MBR diagonal δ. The paper's tuned
	// defaults are 40 for SA and 10 for CA (Figure 14); zero selects
	// them.
	Delta float64
	// Refinement is the expansion heuristic (default RefineNN).
	Refinement Refinement
	// Core tunes the concise-matching IDA run; its Space is the data
	// space for Hilbert ordering (default [0,1000]²).
	Core core.Options
}

// DefaultDeltaSA and DefaultDeltaCA are the paper's tuned δ values.
const (
	DefaultDeltaSA = 40.0
	DefaultDeltaCA = 10.0
)

func (o Options) withDefaults(isSA bool) Options {
	if o.Delta <= 0 {
		if isSA {
			o.Delta = DefaultDeltaSA
		} else {
			o.Delta = DefaultDeltaCA
		}
	}
	if o.Core.Space.IsEmpty() {
		o.Core.Space = core.DefaultSpace
	}
	if o.Core.Metric == nil {
		// Resolve the metric here too (core does its own defaulting):
		// the refinement phase measures pair distances directly, and they
		// must be in the same metric the concise matching optimized.
		o.Core.Metric = geo.Euclidean
	}
	return o
}

// SABound returns Theorem 3's upper bound on Ψ(M) − Ψ(M_CCA) for SA.
func SABound(gamma int, delta float64) float64 { return 2 * float64(gamma) * delta }

// CABound returns Theorem 4's upper bound on Ψ(M) − Ψ(M_CCA) for CA.
func CABound(gamma int, delta float64) float64 { return float64(gamma) * delta }

// group is a δ-bounded cluster of providers (SA).
type group struct {
	mbr     geo.Rect
	members []int // provider indexes
}

// hilbertGroup greedily packs points (in Hilbert order) into groups whose
// MBR diagonal stays within delta — the SA partitioning procedure (§4.1),
// also reused by CA's hyper-entry merging (§4.2).
func hilbertGroups(pts []geo.Point, space geo.Rect, delta float64) []group {
	order := hilbert.SortByKey(pts, space)
	var groups []group
	for _, idx := range order {
		placed := false
		// Scan existing groups, most recent first: Hilbert locality makes
		// the latest group the overwhelmingly likely host.
		for gi := len(groups) - 1; gi >= 0; gi-- {
			ext := groups[gi].mbr.ExtendPoint(pts[idx])
			if ext.Diagonal() <= delta {
				groups[gi].mbr = ext
				groups[gi].members = append(groups[gi].members, idx)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, group{
				mbr:     geo.RectFromPoint(pts[idx]),
				members: []int{idx},
			})
		}
	}
	return groups
}

// refine distributes customers P” among providers Q” (with per-provider
// budgets) using the requested heuristic, appending pairs to out. Pair
// distances are measured in metric — the same one the concise matching
// optimized — so Result.Cost stays consistent under non-Euclidean
// backends. Both heuristics run on small in-memory sets, as §4.3
// prescribes.
func refine(method Refinement, metric geo.Metric, providers []core.Provider, budgets []int,
	customers []rtree.Item, out *[]core.Pair) {
	switch method {
	case RefineExclusive:
		refineExclusive(metric, providers, budgets, customers, out)
	default:
		refineNN(metric, providers, budgets, customers, out)
	}
}

// refineNN: round-robin over providers; each takes its nearest remaining
// customer until its budget is exhausted.
func refineNN(metric geo.Metric, providers []core.Provider, budgets []int, customers []rtree.Item, out *[]core.Pair) {
	taken := make([]bool, len(customers))
	remaining := len(customers)
	budget := append([]int(nil), budgets...)
	for remaining > 0 {
		progress := false
		for qi := range providers {
			if budget[qi] == 0 || remaining == 0 {
				continue
			}
			best, bestD := -1, math.Inf(1)
			for ci, c := range customers {
				if taken[ci] {
					continue
				}
				if d := metric.Dist(providers[qi].Pt, c.Pt); d < bestD {
					best, bestD = ci, d
				}
			}
			if best < 0 {
				continue
			}
			*out = append(*out, core.Pair{
				Provider:   qi, // caller remaps to global index
				CustomerID: customers[best].ID,
				CustomerPt: customers[best].Pt,
				Dist:       bestD,
			})
			taken[best] = true
			remaining--
			budget[qi]--
			progress = true
		}
		if !progress {
			break // all budgets exhausted; leftover customers unassigned
		}
	}
}

// refineExclusive: repeatedly commit the globally closest pair between a
// budgeted provider and an unassigned customer.
func refineExclusive(metric geo.Metric, providers []core.Provider, budgets []int, customers []rtree.Item, out *[]core.Pair) {
	taken := make([]bool, len(customers))
	remaining := len(customers)
	budget := append([]int(nil), budgets...)
	totalBudget := 0
	for _, b := range budget {
		totalBudget += b
	}
	for remaining > 0 && totalBudget > 0 {
		bq, bc, bd := -1, -1, math.Inf(1)
		for qi := range providers {
			if budget[qi] == 0 {
				continue
			}
			for ci, c := range customers {
				if taken[ci] {
					continue
				}
				if d := metric.Dist(providers[qi].Pt, c.Pt); d < bd {
					bq, bc, bd = qi, ci, d
				}
			}
		}
		if bq < 0 {
			break
		}
		*out = append(*out, core.Pair{Provider: bq, CustomerID: customers[bc].ID, CustomerPt: customers[bc].Pt, Dist: bd})
		taken[bc] = true
		remaining--
		budget[bq]--
		totalBudget--
	}
}

// Result wraps a core.Result with approximation-specific metadata.
type Result struct {
	core.Result
	Groups       int           // number of partition groups
	ConciseTime  time.Duration // time spent in the concise matching
	RefineTime   time.Duration // time spent refining
	ErrorBound   float64       // Theorem 3/4 bound on Ψ(M) − Ψ(M_CCA)
	ConciseEdges int           // |Esub| of the concise matching
}

// memTree bulk-loads items into a throwaway in-memory R-tree (used for
// the concise matching inputs that live in main memory).
func memTree(items []rtree.Item) (*rtree.Tree, error) {
	buf := storage.NewBuffer(storage.NewMemStore(storage.DefaultPageSize), 1<<20)
	return rtree.Bulk(buf, items)
}
