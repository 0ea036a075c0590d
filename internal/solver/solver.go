// Package solver is the pluggable front door to every CCA algorithm in
// the repository. Each algorithm — exact (IDA, NIA, RIA, SSPA,
// Hungarian), approximate (SA, CA with their Theorem 3/4 error bounds)
// and heuristic (the greedy SM join) — registers itself under a stable
// name, and callers resolve solvers with Get instead of switching on
// algorithm strings. The CLIs (ccarun, ccabench), the experiment
// harness (internal/expr) and the public batch engine (cca.Engine) all
// go through this registry, so adding a solver is one Register call.
package solver

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// Kind classifies a solver's optimality guarantee.
type Kind int

const (
	// Exact solvers produce the minimum-cost maximum matching.
	Exact Kind = iota
	// Approximate solvers carry a theoretical bound on the cost excess
	// over the optimum (Result.ErrorBound).
	Approximate
	// Heuristic solvers produce a valid maximum matching with no cost
	// guarantee.
	Heuristic
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Approximate:
		return "approximate"
	case Heuristic:
		return "heuristic"
	default:
		return "unknown"
	}
}

// Dataset is the customer-side input a solver consumes: a disk-resident,
// R-tree-indexed point set. *cca.Customers satisfies it; the experiment
// harness adapts its workloads; FromTree wraps a bare tree.
type Dataset interface {
	// Tree returns the R-tree over the customers.
	Tree() *rtree.Tree
	// All returns every customer (used by the main-memory baselines).
	All() ([]rtree.Item, error)
	// Len returns the number of customers.
	Len() int
}

// treeDataset adapts a bare R-tree to Dataset.
type treeDataset struct{ tree *rtree.Tree }

func (d treeDataset) Tree() *rtree.Tree          { return d.tree }
func (d treeDataset) All() ([]rtree.Item, error) { return d.tree.All() }
func (d treeDataset) Len() int                   { return d.tree.Size() }

// FromTree wraps an R-tree as a Dataset.
func FromTree(t *rtree.Tree) Dataset { return treeDataset{tree: t} }

// itemsDataset adapts a tree plus a pre-loaded item slice, so the
// main-memory baselines skip the tree scan (and its I/O charges).
type itemsDataset struct {
	tree  *rtree.Tree
	items []rtree.Item
}

func (d itemsDataset) Tree() *rtree.Tree          { return d.tree }
func (d itemsDataset) All() ([]rtree.Item, error) { return d.items, nil }
func (d itemsDataset) Len() int                   { return len(d.items) }

// FromTreeItems wraps an R-tree whose items the caller already holds in
// memory; All returns them without touching the tree.
func FromTreeItems(t *rtree.Tree, items []rtree.Item) Dataset {
	return itemsDataset{tree: t, items: items}
}

// Options tunes a solve. The zero value selects every solver's paper
// defaults.
type Options struct {
	// Core tunes the exact algorithms (θ, ablation switches, metric,
	// data space); see core.Options.
	Core core.Options
	// Delta is the approximate solvers' group-diagonal bound δ
	// (0 selects the paper's tuned default: 40 for SA, 10 for CA).
	Delta float64
	// Refinement selects the approximate solvers' expansion heuristic.
	Refinement Refinement
}

// Result is a solver-agnostic outcome: the matching plus the metadata a
// caller needs to interpret it without knowing which algorithm ran.
type Result struct {
	core.Result

	// Solver is the canonical name of the solver that produced this.
	Solver string
	// Kind is the producing solver's guarantee class.
	Kind Kind
	// ErrorBound bounds Ψ(M) − Ψ(M_CCA) for Approximate solvers
	// (Theorems 3 and 4); it is 0 for Exact solvers and undefined
	// (also 0) for Heuristic ones.
	ErrorBound float64
	// Groups, ConciseEdges, ConciseTime and RefineTime carry the
	// approximate solvers' phase breakdown (zero otherwise). The
	// sharded meta-solver reuses them for its own phases: Groups is the
	// region count, ConciseTime the concurrent region-solve wall and
	// RefineTime the boundary-reconciliation wall.
	Groups       int
	ConciseEdges int
	ConciseTime  time.Duration
	RefineTime   time.Duration
}

// Solver is one CCA algorithm.
type Solver interface {
	// Name returns the canonical registry name (e.g. "ida").
	Name() string
	// Kind returns the guarantee class.
	Kind() Kind
	// Solve computes a matching of providers to the dataset's customers.
	// ctx carries the caller's cancellation/deadline into the solve: it
	// is checked before the solve starts and threaded into the core
	// algorithms' augmenting-iteration loops, so a cancelled solve
	// returns ctx.Err() mid-run instead of computing to completion. Pass
	// context.Background() when no deadline applies.
	Solve(ctx context.Context, providers []core.Provider, data Dataset, opts Options) (*Result, error)
}

// Doc describes a solver for help text; registered solvers implement it.
type Doc interface {
	Doc() string
}

// SolveFunc is the function form of Solver.Solve, minus the context —
// the registry wrapper threads ctx into Options.Core.Ctx before the
// function runs, so implementations read cancellation from there.
type SolveFunc func(providers []core.Provider, data Dataset, opts Options) (*Result, error)

// funcSolver is the registry's concrete Solver.
type funcSolver struct {
	name string
	kind Kind
	doc  string
	fn   SolveFunc
	// meta marks delegating solvers (the sharded family) whose fn runs
	// other registered solvers underneath. A meta solver must not wrap
	// the metric for query timing: the leaf solves it delegates to do,
	// and double-wrapping would count every region's Dist calls twice.
	meta bool
}

func (s *funcSolver) Name() string { return s.name }
func (s *funcSolver) Kind() Kind   { return s.kind }
func (s *funcSolver) Doc() string  { return s.doc }
func (s *funcSolver) Solve(ctx context.Context, providers []core.Provider, data Dataset, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Fail fast on a dead context, then hand it to the algorithm loops.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "solver")
	span.SetStr("name", s.name)
	defer span.End()
	// Hand the (possibly span-carrying) context to the algorithm loops.
	// When the caller pre-set Core.Ctx (the sharded meta-solver does, to
	// the same ctx it passes here) the span-derived context supersedes
	// it so child spans nest under this solver.
	if opts.Core.Ctx == nil || span != nil {
		opts.Core.Ctx = ctx
	}
	// Distance table: every solver evaluates provider–customer metric
	// distances, so for network metrics the registry wraps the metric
	// in a provider-sourced table here — once, at the choke point all
	// callers (CLIs, expr, cca.Engine, the sharded meta-solver's outer
	// solve) pass through. Inner sharded sub-solves arrive with the
	// *netmetric.Table already in place and skip the rewrap.
	buildWall := withDistTable(providers, data, &opts)
	if buildWall > 0 {
		span.AddTimed("table-build", buildWall)
	}
	if span != nil && !s.meta && !geo.IsEuclidean(opts.Core.Metric) {
		// Traced leaf solve over a non-Euclidean metric: time every Dist
		// call. Wrapping happens after the engine computed its cache key
		// and after withDistTable's type assertion, so neither sees the
		// wrapper; meta solvers skip it (their leaf sub-solves wrap).
		statted, hasStats := opts.Core.Metric.(interface{ Stats() netmetric.CacheStats })
		var before netmetric.CacheStats
		if hasStats {
			before = statted.Stats()
		}
		wrapped, acc := timeMetric(opts.Core.Metric, span.Sink(obs.PointQuerySink))
		opts.Core.Metric = wrapped
		defer func() {
			// Overlay: point-query time accrues inside the flowgraph-build
			// and augment phases, so it annotates rather than telescopes.
			q := span.AddOverlay("netmetric-query", time.Duration(acc.ns.Load()))
			q.SetInt("calls", acc.calls.Load())
			if hasStats {
				after := statted.Stats()
				q.SetInt("snap_hits", int64(after.SnapHits-before.SnapHits))
				q.SetInt("snap_misses", int64(after.SnapMisses-before.SnapMisses))
				q.SetInt("node_hits", int64(after.NodeHits-before.NodeHits))
				q.SetInt("node_misses", int64(after.NodeMisses-before.NodeMisses))
				q.SetInt("pair_hits", int64(after.PairHits-before.PairHits))
				q.SetInt("pair_misses", int64(after.PairMisses-before.PairMisses))
			}
		}()
	}
	res, err := s.fn(providers, data, opts)
	if err != nil {
		return nil, err
	}
	// The table's sweeps run inside the algorithm's Dist calls and so
	// inside its own timers; only the row allocation ran before them.
	// Charge that too, so no part of the table hides from the
	// benchmarks it is supposed to win.
	res.Metrics.CPUTime += buildWall
	if span != nil {
		span.SetInt("faults", int64(res.Metrics.IO.Faults))
		span.SetInt("io_ns", int64(res.Metrics.IOTime))
	}
	res.Solver = s.name
	res.Kind = s.kind
	return res, nil
}

// DistTableMinPairs gates the distance table: below this many
// provider×customer pairs the point-query path (with its warm caches)
// wins, since a table row pays for every node it settles on the way
// to a customer while a cached point query pays for none. Exported so
// the batch engine's shared-table memo applies the identical gate — an
// instance small enough to skip the table here also skips the memo
// there.
const DistTableMinPairs = 1 << 12

// withDistTable swaps opts' metric for a provider-sourced distance
// table (netmetric.Table) when the metric is a road network, the table
// is enabled (core.Options.DistTable >= 0) and the instance is large
// enough to amortize the sweeps. The build only allocates the rows;
// each row's sweep advances during the solve, as far as its queries
// reach. Results are byte-identical either way — the table returns the
// same canonical floats as point queries — so this is purely a
// performance decision. Returns the wall time the build consumed (0
// when skipped or declined over budget).
func withDistTable(providers []core.Provider, data Dataset, opts *Options) time.Duration {
	nm, ok := opts.Core.Metric.(*netmetric.NetworkMetric)
	if !ok || opts.Core.DistTable < 0 || len(providers) == 0 ||
		len(providers)*data.Len() < DistTableMinPairs {
		return 0
	}
	start := time.Now()
	pts := make([]geo.Point, len(providers))
	for i := range providers {
		pts[i] = providers[i].Pt
	}
	if t := nm.BuildTable(pts, opts.Core.DistTable); t != nil {
		opts.Core.Metric = t
	}
	return time.Since(start)
}

// New builds a Solver from a function; doc is a one-line description
// used in CLI help output.
func New(name string, kind Kind, doc string, fn SolveFunc) Solver {
	return &funcSolver{name: name, kind: kind, doc: doc, fn: fn}
}
