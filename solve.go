package cca

import (
	"context"

	"repro/internal/solver"
)

// SolverKind classifies a solver's guarantee: exact, approximate (with
// a theoretical error bound) or heuristic.
type SolverKind = solver.Kind

// Solver guarantee classes.
const (
	SolverExact       = solver.Exact
	SolverApproximate = solver.Approximate
	SolverHeuristic   = solver.Heuristic
)

// SolverOptions tunes a registry solve: core algorithm options plus the
// approximate solvers' δ and refinement. The zero value selects every
// solver's paper defaults.
type SolverOptions = solver.Options

// Refinement selects the approximate solvers' refinement heuristic
// (§4.3); set it via SolverOptions.Refinement.
type Refinement = solver.Refinement

// Refinement heuristics for the approximate solvers.
const (
	RefineNN        = solver.RefineNN
	RefineExclusive = solver.RefineExclusive
)

// SolverResult is the uniform result of a registry solve: the matching
// plus solver name, kind, and (for approximate solvers) the Theorem 3/4
// error bound and phase breakdown.
type SolverResult = solver.Result

// Solve runs the named solver from the registry on one CCA instance.
// Names are case-insensitive; see Solvers for what is available. Pass
// nil opts for the defaults.
//
//	res, err := cca.Solve("ca", providers, customers, nil)
//	if err == nil && res.Kind == cca.SolverApproximate {
//	    fmt.Println("within", res.ErrorBound, "of optimal")
//	}
func Solve(name string, providers []Provider, customers *Customers, opts *SolverOptions) (*SolverResult, error) {
	return SolveContext(context.Background(), name, providers, customers, opts)
}

// SolveContext is Solve with a caller-supplied context: the deadline or
// cancellation is checked before the solve starts and between the
// algorithm's augmenting iterations, so a cancelled solve returns
// ctx.Err() mid-run instead of computing to completion.
//
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	res, err := cca.SolveContext(ctx, "sspa", providers, customers, nil)
func SolveContext(ctx context.Context, name string, providers []Provider, customers *Customers, opts *SolverOptions) (*SolverResult, error) {
	s, err := solver.Get(name)
	if err != nil {
		return nil, err
	}
	var o SolverOptions
	if opts != nil {
		o = *opts
	}
	return s.Solve(ctx, providers, customers, o)
}

// Solvers returns the canonical names of every registered solver,
// sorted.
func Solvers() []string { return solver.Names() }

// SolversOfKind returns the sorted names of the registered solvers with
// the given guarantee class.
func SolversOfKind(k SolverKind) []string { return solver.ByKind(k) }

// DescribeSolvers returns one human-readable line per registered solver
// ("name (kind): description"), for help text.
func DescribeSolvers() []string { return solver.Describe() }
