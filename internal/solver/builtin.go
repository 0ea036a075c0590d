package solver

import (
	"time"

	"repro/internal/approx"
	"repro/internal/core"
)

// Refinement selects the approximate solvers' expansion heuristic; see
// approx.Refinement.
type Refinement = approx.Refinement

// Refinement heuristics, re-exported for Options.
const (
	RefineNN        = approx.RefineNN
	RefineExclusive = approx.RefineExclusive
)

// exact wraps a core solver that reads customers through the R-tree.
func exact(fn func([]core.Provider, Dataset, Options) (*core.Result, error)) SolveFunc {
	return func(providers []core.Provider, data Dataset, opts Options) (*Result, error) {
		res, err := fn(providers, data, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Result: *res}, nil
	}
}

// streaming wraps an incremental solver, whose candidate stream is
// network expansion whenever the registry put a distance table in front
// of the metric: it hands the solver the customers' snap-edge index and
// charges an index built inside the solve to its CPU time, as the
// table's own build is charged.
func streaming(fn SolveFunc) SolveFunc {
	return func(providers []core.Provider, data Dataset, opts Options) (*Result, error) {
		opts.Core.NetIndex = nil
		var wall time.Duration
		if opts.Core.Table != nil {
			opts.Core.NetIndex, wall = networkIndex(data, opts.Core.Table.NetworkMetric)
		}
		res, err := fn(providers, data, opts)
		if err != nil {
			return nil, err
		}
		res.Metrics.CPUTime += wall
		return res, nil
	}
}

// approximate wraps an approx solver, carrying the error bound and phase
// breakdown into the uniform Result.
func approximate(fn func([]core.Provider, Dataset, approx.Options) (*approx.Result, error)) SolveFunc {
	return func(providers []core.Provider, data Dataset, opts Options) (*Result, error) {
		aopts := approx.Options{
			Delta:      opts.Delta,
			Refinement: opts.Refinement,
			Core:       opts.Core,
		}
		res, err := fn(providers, data, aopts)
		if err != nil {
			return nil, err
		}
		return &Result{
			Result:       res.Result,
			ErrorBound:   res.ErrorBound,
			Groups:       res.Groups,
			ConciseEdges: res.ConciseEdges,
			ConciseTime:  res.ConciseTime,
			RefineTime:   res.RefineTime,
		}, nil
	}
}

// The built-in solver family. Every algorithm in the repository
// self-registers here; resolving by name via Get is the only supported
// way to pick one outside this package.
func init() {
	Register(New("ida", Exact,
		"Incremental On-demand Algorithm (§3.3), the paper's best exact method",
		streaming(exact(func(p []core.Provider, d Dataset, o Options) (*core.Result, error) {
			return core.IDA(p, d.Tree(), o.Core)
		}))))
	Register(New("nia", Exact,
		"Nearest Neighbor Incremental Algorithm (§3.2)",
		streaming(exact(func(p []core.Provider, d Dataset, o Options) (*core.Result, error) {
			return core.NIA(p, d.Tree(), o.Core)
		}))))
	Register(New("ria", Exact,
		"Range Incremental Algorithm (§3.1), θ-stepped range growth",
		exact(func(p []core.Provider, d Dataset, o Options) (*core.Result, error) {
			return core.RIA(p, d.Tree(), o.Core)
		})))
	Register(New("sspa", Exact,
		"Successive Shortest Path baseline on the full bipartite graph (§2.2)",
		exact(func(p []core.Provider, d Dataset, o Options) (*core.Result, error) {
			items, err := d.All()
			if err != nil {
				return nil, err
			}
			return core.SSPA(p, items, o.Core)
		})))
	Register(New("hungarian", Exact,
		"Kuhn–Munkres on a dense (Σk)·|P| matrix (§2.1); tiny instances only",
		exact(func(p []core.Provider, d Dataset, o Options) (*core.Result, error) {
			items, err := d.All()
			if err != nil {
				return nil, err
			}
			return core.HungarianAssign(p, items, o.Core)
		})))
	Register(New("greedy", Heuristic,
		"greedy exclusive-closest-pair spatial matching join (§2.3 related work)",
		streaming(exact(func(p []core.Provider, d Dataset, o Options) (*core.Result, error) {
			return core.SMJoin(p, d.Tree(), o.Core)
		}))))
	RegisterAlias("sm", "greedy")

	Register(New("sa", Approximate,
		"Service-provider Approximation (§4.1), error ≤ 2·γ·δ (Theorem 3)",
		approximate(func(p []core.Provider, d Dataset, o approx.Options) (*approx.Result, error) {
			return approx.SA(p, d.Tree(), o)
		})))
	Register(New("ca", Approximate,
		"Customer Approximation (§4.2), error ≤ γ·δ (Theorem 4)",
		approximate(func(p []core.Provider, d Dataset, o approx.Options) (*approx.Result, error) {
			return approx.CA(p, d.Tree(), o)
		})))
}
