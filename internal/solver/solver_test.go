package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/hungarian"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// buildDataset bulk-loads points into an in-memory R-tree Dataset.
func buildDataset(t *testing.T, pts []geo.Point) Dataset {
	t.Helper()
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{ID: int64(i), Pt: p}
	}
	buf := storage.NewBuffer(storage.NewMemStore(storage.DefaultPageSize), 1<<20)
	tree, err := rtree.Bulk(buf, items)
	if err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	return FromTree(tree)
}

// randomInstance draws one CCA instance. Capacities are randomized and,
// on odd seeds, the instance is γ-limited (Σ q.k > |P|, so the customer
// side binds).
func randomInstance(seed int64) ([]core.Provider, []geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	nq := 2 + rng.Intn(5)
	np := 10 + rng.Intn(60)
	providers := make([]core.Provider, nq)
	for i := range providers {
		cap := 1 + rng.Intn(6)
		if seed%2 == 1 {
			// γ-limited: inflate capacities past |P|.
			cap += np/nq + 1
		}
		providers[i] = core.Provider{
			Pt:  geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Cap: cap,
		}
	}
	pts := make([]geo.Point, np)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return providers, pts
}

// validate checks the CCA feasibility conditions on a matching.
func validate(t *testing.T, name string, providers []core.Provider, np int, res *Result) {
	t.Helper()
	used := make([]int, len(providers))
	seen := make(map[int64]bool)
	sum := 0.0
	for _, pr := range res.Pairs {
		if pr.Provider < 0 || pr.Provider >= len(providers) {
			t.Fatalf("%s: pair references provider %d of %d", name, pr.Provider, len(providers))
		}
		if seen[pr.CustomerID] {
			t.Fatalf("%s: customer %d assigned twice", name, pr.CustomerID)
		}
		seen[pr.CustomerID] = true
		used[pr.Provider]++
		sum += pr.Dist
	}
	for q, u := range used {
		if u > providers[q].Cap {
			t.Fatalf("%s: provider %d over capacity (%d > %d)", name, q, u, providers[q].Cap)
		}
	}
	gamma := 0
	for _, p := range providers {
		gamma += p.Cap
	}
	if np < gamma {
		gamma = np
	}
	if res.Size != gamma {
		t.Fatalf("%s: matching size %d, want γ = %d", name, res.Size, gamma)
	}
	if d := math.Abs(sum - res.Cost); d > 1e-6 {
		t.Fatalf("%s: cost %v does not match pair sum %v", name, res.Cost, sum)
	}
}

// TestExactConformance iterates every registered exact solver over
// randomized instances (varying |Q|, |P|, capacities, including
// γ-limited cases) and asserts the cost matches the SSPA oracle.
func TestExactConformance(t *testing.T) {
	oracle := MustGet("sspa")
	names := ByKind(Exact)
	if len(names) < 5 {
		t.Fatalf("expected at least 5 exact solvers registered, got %v", names)
	}
	for seed := int64(1); seed <= 12; seed++ {
		providers, pts := randomInstance(seed)
		data := buildDataset(t, pts)
		ref, err := oracle.Solve(context.Background(), providers, data, Options{})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		validate(t, "sspa", providers, len(pts), ref)
		for _, name := range names {
			s := MustGet(name)
			res, err := s.Solve(context.Background(), providers, data, Options{})
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
			if res.Solver != name || res.Kind != Exact {
				t.Fatalf("seed %d: %s: result metadata %q/%v", seed, name, res.Solver, res.Kind)
			}
			if res.ErrorBound != 0 {
				t.Fatalf("seed %d: %s: exact solver reported error bound %g", seed, name, res.ErrorBound)
			}
			validate(t, name, providers, len(pts), res)
			if d := math.Abs(res.Cost - ref.Cost); d > 1e-6 {
				t.Errorf("seed %d: %s cost %.9f != oracle %.9f (Δ %.3g)",
					seed, name, res.Cost, ref.Cost, d)
			}
		}
	}
}

// TestApproxConformance asserts every approximate solver's cost stays
// within its reported ErrorBound of the exact optimum, for both
// refinement heuristics.
func TestApproxConformance(t *testing.T) {
	oracle := MustGet("sspa")
	names := ByKind(Approximate)
	if len(names) < 2 {
		t.Fatalf("expected at least 2 approximate solvers registered, got %v", names)
	}
	for seed := int64(1); seed <= 8; seed++ {
		providers, pts := randomInstance(seed)
		data := buildDataset(t, pts)
		ref, err := oracle.Solve(context.Background(), providers, data, Options{})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		for _, name := range names {
			for _, refn := range []Refinement{RefineNN, RefineExclusive} {
				res, err := MustGet(name).Solve(context.Background(), providers, data, Options{Delta: 25, Refinement: refn})
				if err != nil {
					t.Fatalf("seed %d: %s/%v: %v", seed, name, refn, err)
				}
				validate(t, name, providers, len(pts), res)
				if res.ErrorBound <= 0 {
					t.Fatalf("seed %d: %s: missing error bound", seed, name)
				}
				if excess := res.Cost - ref.Cost; excess > res.ErrorBound+1e-6 {
					t.Errorf("seed %d: %s/%v exceeds its bound: cost %.3f, optimal %.3f, bound %.3f",
						seed, name, refn, res.Cost, ref.Cost, res.ErrorBound)
				}
			}
		}
	}
}

// TestHeuristicValidity: heuristic solvers must still produce feasible
// maximum matchings, never cheaper than the optimum.
func TestHeuristicValidity(t *testing.T) {
	oracle := MustGet("sspa")
	for seed := int64(1); seed <= 6; seed++ {
		providers, pts := randomInstance(seed)
		data := buildDataset(t, pts)
		ref, err := oracle.Solve(context.Background(), providers, data, Options{})
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		for _, name := range ByKind(Heuristic) {
			res, err := MustGet(name).Solve(context.Background(), providers, data, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			validate(t, name, providers, len(pts), res)
			if res.Cost < ref.Cost-1e-6 {
				t.Errorf("%s cost %.3f beats the optimum %.3f", name, res.Cost, ref.Cost)
			}
		}
	}
}

// TestRegistry exercises lookup semantics: case-insensitivity, aliases,
// the unknown-name error, and the Describe/Names helpers.
func TestRegistry(t *testing.T) {
	for _, want := range []string{"ida", "nia", "ria", "sspa", "hungarian", "greedy", "sa", "ca"} {
		if _, err := Get(want); err != nil {
			t.Errorf("Get(%q): %v", want, err)
		}
	}
	if s, err := Get("IDA"); err != nil || s.Name() != "ida" {
		t.Errorf("case-insensitive Get(IDA) = %v, %v", s, err)
	}
	if s, err := Get("SM"); err != nil || s.Name() != "greedy" {
		t.Errorf("alias Get(SM) = %v, %v", s, err)
	}
	if _, err := Get("no-such-solver"); err == nil || !strings.Contains(err.Error(), "ida") {
		t.Errorf("unknown solver error should list registered names, got %v", err)
	}
	names := Names()
	if len(names) != len(Describe()) {
		t.Errorf("Names (%d) and Describe (%d) disagree", len(names), len(Describe()))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
}

// TestCapacitySumsSaturate: capacities whose sum passes the int range
// (two providers of capacity 2^63−1) used to wrap γ to a negative
// total, so ida, nia, ria and sspa answered size 0 with no error, and
// hungarian's slot count wrapped past its matrix check into a makeslice
// panic. The sums now saturate: the exact solvers match the one
// customer, and hungarian refuses the matrix with an error.
func TestCapacitySumsSaturate(t *testing.T) {
	providers := []core.Provider{
		{Pt: geo.Point{X: 0, Y: 0}, Cap: math.MaxInt},
		{Pt: geo.Point{X: 10, Y: 0}, Cap: math.MaxInt},
	}
	data := buildDataset(t, []geo.Point{{X: 3, Y: 4}})
	for _, name := range []string{"ida", "nia", "ria", "sspa"} {
		res, err := MustGet(name).Solve(context.Background(), providers, data, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Size != 1 || len(res.Pairs) != 1 || res.Pairs[0].Provider != 0 || res.Cost != 5 {
			t.Fatalf("%s: size %d, cost %v, pairs %+v; want the customer on provider 0 at cost 5", name, res.Size, res.Cost, res.Pairs)
		}
	}
	if res, err := MustGet("hungarian").Solve(context.Background(), providers, data, Options{}); err == nil {
		t.Fatalf("hungarian: no error for %d×2 slots (size %d)", math.MaxInt, res.Size)
	}
}

// overflowInstance is one provider of capacity 2 at the origin and two
// customers 7.3e304 either side of it. Squaring a coordinate difference
// overflows, so every distance reads +Inf.
func overflowInstance(t *testing.T) ([]core.Provider, Dataset) {
	t.Helper()
	providers := []core.Provider{{Pt: geo.Point{}, Cap: 2}}
	return providers, buildDataset(t, []geo.Point{{X: 7.3e304}, {X: -7.3e304}})
}

// solveWithin runs solver name on a goroutine and returns its error, or
// fails the test if the solve has not returned within limit, so a solve
// that never ends fails the test instead of hanging it.
func solveWithin(t *testing.T, ctx context.Context, limit time.Duration, name string, providers []core.Provider, data Dataset) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := MustGet(name).Solve(ctx, providers, data, Options{})
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("%s still running after %v", name, limit)
		return nil
	}
}

// TestHungarianOverflowEnds: when no column has a finite reduced cost
// the Hungarian search has nowhere to go; it must say so, with or
// without a deadline, instead of looping forever.
func TestHungarianOverflowEnds(t *testing.T) {
	providers, data := overflowInstance(t)
	if err := solveWithin(t, context.Background(), 5*time.Second, "hungarian", providers, data); !errors.Is(err, hungarian.ErrNoFiniteAssignment) {
		t.Fatalf("no deadline: err %v, want ErrNoFiniteAssignment", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := solveWithin(t, ctx, 5*time.Second, "hungarian", providers, data); !errors.Is(err, hungarian.ErrNoFiniteAssignment) {
		t.Fatalf("2 s deadline: err %v, want ErrNoFiniteAssignment", err)
	}
}

// TestOverflowIsAnError: a solver whose distances overflow matches fewer
// than γ customers at a finite cost; the registry must report an error,
// not a solved matching. ria is left out: its θ-stepped range search
// would need about 1e305 steps to reach these customers.
func TestOverflowIsAnError(t *testing.T) {
	providers, data := overflowInstance(t)
	for _, name := range []string{"ida", "nia", "sspa", "hungarian", "greedy", "sa", "ca", "sharded"} {
		if err := solveWithin(t, context.Background(), 5*time.Second, name, providers, data); err == nil {
			t.Errorf("%s: no error on an instance whose distances overflow", name)
		}
	}
}
