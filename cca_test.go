package cca

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
)

func testWorkload(t *testing.T, nq, nc, k int, seed int64) ([]Provider, *Customers) {
	t.Helper()
	net := datagen.NewNetwork(20, core_DefaultSpace(), seed)
	cpts := net.Points(datagen.Config{N: nc, Dist: datagen.Clustered, Seed: seed + 1})
	qpts := net.Points(datagen.Config{N: nq, Dist: datagen.Clustered, Seed: seed + 2})
	providers := make([]Provider, nq)
	for i := range providers {
		providers[i] = Provider{Pt: qpts[i], Cap: k}
	}
	customers, err := IndexCustomers(cpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { customers.Close() })
	return providers, customers
}

func core_DefaultSpace() Rect {
	return Rect{Min: Point{X: 0, Y: 0}, Max: Point{X: 1000, Y: 1000}}
}

// solveIDA runs the paper's best exact solver through the registry.
func solveIDA(t *testing.T, providers []Provider, customers *Customers) *Result {
	t.Helper()
	res, err := Solve("ida", providers, customers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &res.Result
}

// All exact solvers must agree on cost and validate.
func TestPublicExactAgreement(t *testing.T) {
	providers, customers := testWorkload(t, 6, 200, 10, 77)
	ida := solveIDA(t, providers, customers)
	if err := Validate(providers, customers, ida); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]*SolverOptions{
		"ria":  {Core: Options{Theta: 25}},
		"nia":  nil,
		"sspa": nil,
	} {
		res, err := Solve(name, providers, customers, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Validate(providers, customers, &res.Result); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(res.Cost-ida.Cost) > 1e-6*(1+ida.Cost) {
			t.Fatalf("%s cost %v != IDA cost %v", name, res.Cost, ida.Cost)
		}
	}
}

// Greedy is valid but never better than optimal.
func TestPublicGreedy(t *testing.T) {
	providers, customers := testWorkload(t, 5, 150, 10, 33)
	opt := solveIDA(t, providers, customers)
	greedy, err := Solve("greedy", providers, customers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(providers, customers, &greedy.Result); err != nil {
		t.Fatal(err)
	}
	if greedy.Cost < opt.Cost-1e-6 {
		t.Fatalf("greedy %v beat optimal %v", greedy.Cost, opt.Cost)
	}
}

// Approximations respect their bounds through the public API.
func TestPublicApprox(t *testing.T) {
	providers, customers := testWorkload(t, 6, 250, 10, 55)
	opt := solveIDA(t, providers, customers)
	sa, err := Solve("sa", providers, customers, &SolverOptions{Delta: 40})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := Solve("ca", providers, customers, &SolverOptions{Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	gamma := opt.Size
	// Theorem 3: SA errs by at most 2·γ·δ; Theorem 4: CA by at most γ·δ.
	if want := 2 * float64(gamma) * 40; sa.ErrorBound != want {
		t.Fatalf("SA error bound %v, want 2·γ·δ = %v", sa.ErrorBound, want)
	}
	if want := float64(gamma) * 10; ca.ErrorBound != want {
		t.Fatalf("CA error bound %v, want γ·δ = %v", ca.ErrorBound, want)
	}
	if sa.Cost > opt.Cost+sa.ErrorBound+1e-6 {
		t.Fatalf("SA violates Theorem 3: err %v > %v", sa.Cost-opt.Cost, sa.ErrorBound)
	}
	if ca.Cost > opt.Cost+ca.ErrorBound+1e-6 {
		t.Fatalf("CA violates Theorem 4: err %v > %v", ca.Cost-opt.Cost, ca.ErrorBound)
	}
	if sa.Size != gamma || ca.Size != gamma {
		t.Fatalf("approximate matchings not full size: SA %d CA %d want %d", sa.Size, ca.Size, gamma)
	}
}

// Disk-backed datasets: index to a file, reopen, and solve.
func TestPublicDiskBackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]Point, 3000)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	path := filepath.Join(t.TempDir(), "customers.db")
	customers, err := IndexCustomersConfig(pts, IndexConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	providers := []Provider{
		{Pt: Point{X: 250, Y: 250}, Cap: 40},
		{Pt: Point{X: 750, Y: 750}, Cap: 40},
	}
	res1 := solveIDA(t, providers, customers)
	if err := customers.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenCustomers(path, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 3000 {
		t.Fatalf("reopened Len = %d", reopened.Len())
	}
	res2 := solveIDA(t, providers, reopened)
	if math.Abs(res1.Cost-res2.Cost) > 1e-9 {
		t.Fatalf("cost changed across reopen: %v vs %v", res1.Cost, res2.Cost)
	}
	if reopened.IOStats().Faults == 0 {
		t.Fatal("disk-backed run must report page faults")
	}
}

// Validate must reject broken matchings.
func TestValidateRejects(t *testing.T) {
	providers, customers := testWorkload(t, 3, 50, 5, 21)
	res := solveIDA(t, providers, customers)
	good := *res
	if err := Validate(providers, customers, &good); err != nil {
		t.Fatal(err)
	}

	dup := *res
	dup.Pairs = append(append([]Pair(nil), res.Pairs...), res.Pairs[0])
	dup.Size++
	if err := Validate(providers, customers, &dup); err == nil {
		t.Fatal("duplicate customer not rejected")
	}

	short := *res
	short.Pairs = res.Pairs[:len(res.Pairs)-1]
	short.Size--
	if err := Validate(providers, customers, &short); err == nil {
		t.Fatal("undersized matching not rejected")
	}

	// A result that claims γ while listing fewer pairs, with its cost
	// restated to match the pairs it does list.
	missing := *res
	missing.Pairs = res.Pairs[:len(res.Pairs)-1]
	missing.Cost -= res.Pairs[len(res.Pairs)-1].Dist
	if err := Validate(providers, customers, &missing); err == nil {
		t.Fatal("size inconsistent with the listed pairs not rejected")
	}

	badCost := *res
	badCost.Cost += 5
	if err := Validate(providers, customers, &badCost); err == nil {
		t.Fatal("inconsistent cost not rejected")
	}

	// Non-finite costs: a NaN or infinite pair distance carried into
	// the total, and a NaN total over finite pairs.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		nonFinite := *res
		nonFinite.Pairs = append([]Pair(nil), res.Pairs...)
		nonFinite.Pairs[0].Dist = bad
		nonFinite.Cost = bad
		if err := Validate(providers, customers, &nonFinite); err == nil {
			t.Fatalf("pair distance and cost %v not rejected", bad)
		}
	}
	nanTotal := *res
	nanTotal.Cost = math.NaN()
	if err := Validate(providers, customers, &nanTotal); err == nil {
		t.Fatal("NaN cost over finite pairs not rejected")
	}
}

// IO accounting via the public API.
func TestPublicIOAccounting(t *testing.T) {
	providers, customers := testWorkload(t, 4, 2000, 20, 13)
	customers.DropCache()
	customers.ResetIOStats()
	solveIDA(t, providers, customers)
	st := customers.IOStats()
	if st.Faults == 0 {
		t.Fatal("expected faults on cold cache")
	}
	if st.IOTime() <= 0 {
		t.Fatal("IOTime must be positive")
	}
	customers.ResetIOStats()
	if customers.IOStats().Faults != 0 {
		t.Fatal("ResetIOStats did not reset")
	}
}

// The Hungarian baseline must agree with IDA through the public API.
func TestPublicHungarian(t *testing.T) {
	providers, customers := testWorkload(t, 3, 40, 5, 91)
	ida := solveIDA(t, providers, customers)
	hung, err := Solve("hungarian", providers, customers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hung.Cost-ida.Cost) > 1e-6*(1+ida.Cost) {
		t.Fatalf("Hungarian cost %v != IDA cost %v", hung.Cost, ida.Cost)
	}
	if err := Validate(providers, customers, &hung.Result); err != nil {
		t.Fatal(err)
	}
}

// The dynamic matcher must track the batch optimum through the public
// API.
func TestPublicDynamicMatcher(t *testing.T) {
	providers := []Provider{
		{Pt: Point{X: 100, Y: 100}, Cap: 2},
		{Pt: Point{X: 900, Y: 900}, Cap: 2},
	}
	m := NewDynamicMatcher(providers)
	rng := rand.New(rand.NewSource(17))
	pts := make([]Point, 8)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		if _, err := m.Arrive(pts[i], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	customers, err := IndexCustomers(pts)
	if err != nil {
		t.Fatal(err)
	}
	defer customers.Close()
	batch := solveIDA(t, providers, customers)
	if math.Abs(m.Cost()-batch.Cost) > 1e-6*(1+batch.Cost) {
		t.Fatalf("dynamic cost %v != batch cost %v", m.Cost(), batch.Cost)
	}
	if m.Size() != batch.Size || m.Matching().Size != batch.Size {
		t.Fatalf("dynamic size %d != batch %d", m.Size(), batch.Size)
	}
}

// Spatial queries on the customer dataset must match brute force.
func TestPublicSpatialQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	customers, err := IndexCustomers(pts)
	if err != nil {
		t.Fatal(err)
	}
	defer customers.Close()

	center := Point{X: 400, Y: 600}
	got, err := customers.RangeSearch(center, 120)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range pts {
		if center.Dist(p) <= 120 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("range: %d want %d", len(got), want)
	}

	nn, err := customers.KNN(center, 5)
	if err != nil || len(nn) != 5 {
		t.Fatalf("KNN: %d items, %v", len(nn), err)
	}
	prev := -1.0
	for _, it := range nn {
		d := center.Dist(it.Pt)
		if d < prev {
			t.Fatal("KNN not sorted by distance")
		}
		prev = d
	}
	// The 5th NN distance must not exceed any unreturned point's distance.
	returned := map[int64]bool{}
	for _, it := range nn {
		returned[it.ID] = true
	}
	for _, c := range pts {
		_ = c
	}
	all, _ := customers.All()
	for _, it := range all {
		if !returned[it.ID] && center.Dist(it.Pt) < prev-1e-9 {
			t.Fatalf("point %d closer than the returned 5th NN", it.ID)
		}
	}
}

// The library is single-threaded per solver, but independent solvers on
// independent datasets must be safe to run concurrently (verified under
// -race).
func TestConcurrentIndependentSolvers(t *testing.T) {
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			pts := make([]Point, 300)
			for i := range pts {
				pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			}
			customers, err := IndexCustomers(pts)
			if err != nil {
				done <- err
				return
			}
			defer customers.Close()
			providers := []Provider{
				{Pt: Point{X: 250, Y: 250}, Cap: 30},
				{Pt: Point{X: 750, Y: 750}, Cap: 30},
			}
			res, err := Solve("ida", providers, customers, nil)
			if err != nil {
				done <- err
				return
			}
			done <- Validate(providers, customers, &res.Result)
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
