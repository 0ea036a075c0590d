// Package core implements the paper's contribution: exact capacity
// constrained assignment (CCA) algorithms that compute a minimum-cost,
// maximum-size matching between service providers Q (memory-resident,
// capacitated) and customers P (disk-resident, R-tree indexed) without
// materializing the complete bipartite flow graph.
//
// Algorithms:
//
//   - SSPA  (§2.2)  — the classical successive shortest path baseline on
//     the complete bipartite graph;
//   - RIA   (§3.1)  — Range Incremental Algorithm: grows Esub with
//     θ-stepped (annular) range searches around every provider;
//   - NIA   (§3.2)  — Nearest Neighbor Incremental Algorithm: grows Esub
//     one edge at a time via incremental NN search, gated by Theorem 1;
//   - IDA   (§3.3)  — Incremental On-demand Algorithm: NIA plus full-
//     provider-aware heap keys (q.α + dist) and the Theorem 2 fast path;
//   - SMJoin (§2.3) — the greedy exclusive-closest-pair spatial matching
//     baseline (related work; not cost-optimal).
//
// All of RIA/NIA/IDA produce matchings with exactly the same cost as
// SSPA on the full graph (verified by the test suite against an
// independent Bellman–Ford oracle).
package core

import (
	"context"
	"time"

	"repro/internal/flowgraph"
	"repro/internal/geo"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Provider is a capacitated service provider (a point q with q.k).
type Provider struct {
	Pt  geo.Point
	Cap int
}

// Pair is one assignment in the matching.
type Pair struct {
	Provider   int       // index into the providers slice
	CustomerID int64     // the customer's (R-tree item) identifier
	CustomerPt geo.Point // the customer's location
	Dist       float64   // Euclidean distance of the pair
}

// Metrics records the work an algorithm performed — the quantities the
// paper's evaluation plots (§5.1): subgraph size, CPU time and simulated
// I/O time (10 ms per page fault).
type Metrics struct {
	SubgraphEdges  int           // |Esub| at termination
	FullGraphEdges int           // |Q|·|P|, the paper's FULL reference
	Dijkstras      int           // shortest-path searches started
	Resumes        int           // PUA-repaired resumptions
	Pops           int           // Dijkstra finalizations
	Relaxations    int           // edge relaxations
	Repairs        int           // PUA repair propagations
	RangeSearches  int           // RIA (annular) range searches issued
	NNRetrievals   int           // NIA/IDA nearest neighbors fetched
	KeyUpdates     int           // IDA heap-key updates (full-provider α changes)
	Augments       int           // augmenting iterations run (successful augmentations)
	CPUTime        time.Duration // wall time spent computing
	IO             storage.Stats // buffer activity during the run
	IOTime         time.Duration // simulated I/O time (10 ms per fault)
}

// Result is a computed CCA matching M with its cost Ψ(M) and metrics.
type Result struct {
	Pairs   []Pair
	Cost    float64 // Ψ(M) — the summed Euclidean distance (Equation 1)
	Size    int     // |M|
	Metrics Metrics
}

// Options tunes the exact algorithms. The zero value selects the paper's
// configuration: θ = 0.8, PUA on, Theorem 2 fast path on, grouped ANN on.
type Options struct {
	// Theta is RIA's range increment θ (default 0.8, the paper's tuned
	// value for the [0,1000]² space).
	Theta float64
	// DisablePUA turns off the Dijkstra-state reuse of §3.4.1 (ablation).
	DisablePUA bool
	// DisableTheorem2 turns off IDA's fast path (ablation).
	DisableTheorem2 bool
	// DisableANN uses one independent NN iterator per provider instead
	// of the grouped incremental ANN search of §3.4.2 (ablation).
	DisableANN bool
	// ANNGroupSize is the Hilbert group size for ANN (default 8).
	ANNGroupSize int
	// Space is the data space, used for Hilbert ordering (default
	// [0,1000]², the paper's normalized space).
	Space geo.Rect
	// CustomerCap maps a customer ID to its capacity (default: 1 for
	// every customer). The CA approximation assigns representative
	// weights this way (§4.2).
	CustomerCap func(id int64) int
	// TotalCustomerCap overrides Σ customer capacities when the caller
	// knows it (avoids a full scan); 0 means "use tree size" under unit
	// capacities or a scan otherwise.
	TotalCustomerCap int
	// PairCapacity is the maximum number of matching instances per
	// (q,p) pair; 0 means 1 (the exact CCA setting). CA's concise
	// matching runs with an unbounded pair capacity (§4.2).
	PairCapacity int
	// Metric computes edge costs (default geo.Euclidean). Non-Euclidean
	// metrics must satisfy the lower-bound contract documented on
	// geo.Metric for the exact algorithms' pruning to remain exact.
	Metric geo.Metric
	// Ctx carries the caller's cancellation/deadline into the solve
	// loops: the algorithms check it between augmenting iterations and
	// return its error mid-solve. nil means "never cancelled". The
	// streaming engine threads each submission's context through here.
	Ctx context.Context
	// Shards is the number of spatial regions the "sharded" meta-solver
	// splits one instance into (internal/shard): 0 selects a
	// data-derived automatic count, 1 disables sharding. Ignored by the
	// non-sharded solvers.
	Shards int
	// ShardBoundary is the sharded meta-solver's boundary band width in
	// data-space units: customers whose distance to the nearest foreign-
	// shard provider is within this band of their own shard's nearest
	// provider are re-solved exactly across shards. 0 selects the
	// default (5% of the data-space diagonal). Ignored otherwise.
	ShardBoundary float64
	// ShardWorkers bounds the sharded meta-solver's concurrent shard
	// solves: 0 shares one process-wide GOMAXPROCS pool across all
	// sharded solves (bounded even under a full engine batch of them),
	// a positive value gives each solve a dedicated pool of that width.
	// It changes wall-clock time only, never results: the sharded merge
	// is deterministic by construction.
	ShardWorkers int
	// DistTable controls the distance table the solver registry puts in
	// front of network metrics (netmetric.BuildTable): one row per
	// provider snap-edge endpoint, each a single-source sweep that the
	// solve advances only as far as its queries reach. 0 (auto) builds
	// the table when the instance is large enough and the rows' label
	// vectors fit netmetric.DefaultTableBudget; -1 disables it; a
	// positive value overrides the memory budget (in float64 cells).
	// Like ShardWorkers it never changes results — table lookups are
	// byte-identical to point queries (the conformance suite pins
	// this) — so it is excluded from the engine's result-cache digest.
	DistTable int

	// customCaps records whether the caller provided CustomerCap, so
	// γ computation can skip the full scan for unit capacities.
	customCaps bool
}

// cancelled reports the context's error, if a context was supplied.
// The augmenting-iteration loops call it once per iteration — cheap
// relative to the Dijkstra each iteration runs, and frequent enough
// that a cancelled batch solve returns within one iteration.
func (o Options) cancelled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// validityEps absorbs floating-point drift in Theorem 1 comparisons.
// Erring low is safe: it only makes an algorithm insert extra edges.
const validityEps = 1e-9

// DefaultSpace is the paper's normalized data space.
var DefaultSpace = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

func (o Options) withDefaults() Options {
	if o.Theta <= 0 {
		o.Theta = 0.8
	}
	if o.ANNGroupSize <= 0 {
		o.ANNGroupSize = rtree.DefaultANNGroupSize
	}
	if o.Space.IsEmpty() {
		o.Space = DefaultSpace
	}
	if o.Metric == nil {
		o.Metric = geo.Euclidean
	}
	o.customCaps = o.CustomerCap != nil
	if o.CustomerCap == nil {
		o.CustomerCap = func(int64) int { return 1 }
	}
	return o
}

func flowProviders(providers []Provider) []flowgraph.Provider {
	out := make([]flowgraph.Provider, len(providers))
	for i, p := range providers {
		out[i] = flowgraph.Provider{Pt: p.Pt, Cap: p.Cap}
	}
	return out
}

// newFlowGraph builds the residual graph configured by opts (metric and
// per-pair capacity). opts must already carry defaults.
func newFlowGraph(providers []Provider, complete bool, opts Options) *flowgraph.Graph {
	g := flowgraph.NewGraph(flowProviders(providers), complete)
	g.SetMetric(opts.Metric)
	g.SetPairCapacity(opts.PairCapacity)
	return g
}

// gammaFor computes γ = min(Σ q.k, Σ p.cap) for a tree-resident P.
func gammaFor(providers []Provider, tree *rtree.Tree, opts Options) (int, error) {
	total := 0
	for _, p := range providers {
		total += p.Cap
	}
	custTotal := opts.TotalCustomerCap
	if custTotal == 0 {
		custTotal = tree.Size()
		if opts.customCaps {
			items, err := tree.All()
			if err != nil {
				return 0, err
			}
			custTotal = 0
			for _, it := range items {
				custTotal += opts.CustomerCap(it.ID)
			}
		}
	}
	if custTotal < total {
		total = custTotal
	}
	return total, nil
}

// finish extracts the result from a solved graph.
func finish(g *flowgraph.Graph, m Metrics) *Result {
	pairs := g.Pairs()
	out := make([]Pair, len(pairs))
	cost := 0.0
	for i, p := range pairs {
		out[i] = Pair{Provider: p.Provider, CustomerID: p.CustID, CustomerPt: p.CustPt, Dist: p.Dist}
		cost += p.Dist
	}
	st := g.Stats()
	m.SubgraphEdges = g.EdgeCount()
	m.Dijkstras = st.Dijkstras
	m.Resumes = st.Resumes
	m.Pops = st.Pops
	m.Relaxations = st.Relaxations
	m.Repairs = st.Repairs
	return &Result{Pairs: out, Cost: cost, Size: len(out), Metrics: m}
}

// ioSnapshot captures buffer stats so a run can report only its own I/O.
type ioSnapshot struct {
	buf  *storage.Buffer
	base storage.Stats
}

func snapshotIO(buf *storage.Buffer) ioSnapshot {
	if buf == nil {
		return ioSnapshot{}
	}
	return ioSnapshot{buf: buf, base: buf.Stats()}
}

func (s ioSnapshot) delta() storage.Stats {
	if s.buf == nil {
		return storage.Stats{}
	}
	now := s.buf.Stats()
	return storage.Stats{
		Hits:           now.Hits - s.base.Hits,
		Faults:         now.Faults - s.base.Faults,
		PhysicalReads:  now.PhysicalReads - s.base.PhysicalReads,
		PhysicalWrites: now.PhysicalWrites - s.base.PhysicalWrites,
	}
}
