package cca

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/storage"
)

// engineWorkload builds nq-provider instances over one shared customer
// dataset — the many-scenarios-one-dataset shape the engine exists for.
func engineWorkload(t testing.TB, instances, nc int) ([]Instance, *Customers) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, nc)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	customers, err := IndexCustomers(pts)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Instance, instances)
	for i := range batch {
		providers := make([]Provider, 4+i%3)
		for q := range providers {
			providers[q] = Provider{
				Pt:  Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
				Cap: 5 + rng.Intn(20),
			}
		}
		batch[i] = Instance{
			Label:     fmt.Sprintf("scenario-%d", i),
			Providers: providers,
			Customers: customers,
			Solver:    []string{"ida", "nia", "ca"}[i%3],
		}
	}
	return batch, customers
}

// submitAll puts a batch on the engine through its one entry point —
// Submit per instance — and returns the results in input order.
func submitAll(ctx context.Context, e *Engine, batch []Instance) []InstanceResult {
	chans := make([]<-chan InstanceResult, len(batch))
	for i, in := range batch {
		chans[i] = e.Submit(ctx, in)
	}
	out := make([]InstanceResult, len(batch))
	for i, ch := range chans {
		out[i] = <-ch
	}
	return out
}

// solvedAll fails the test unless every result carries a matching.
func solvedAll(t testing.TB, results []InstanceResult) {
	t.Helper()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
	}
}

// fingerprint renders the deterministic portion of a result: everything
// except wall-clock timings (CPU time is the only nondeterministic
// field; page-fault counts are exact because every solve starts cold).
func fingerprint(r InstanceResult) string {
	if r.Err != nil {
		return fmt.Sprintf("%s/err:%v", r.Label, r.Err)
	}
	res := *r.Result
	res.Metrics.CPUTime = 0
	res.ConciseTime = 0
	res.RefineTime = 0
	return fmt.Sprintf("%s/%s %+v", r.Label, r.Solver, res)
}

// TestEngineMatchesSequential: a parallel batch run must produce
// byte-identical per-instance results to the one-worker sequential loop.
func TestEngineMatchesSequential(t *testing.T) {
	batch, customers := engineWorkload(t, 9, 600)
	defer customers.Close()

	seq := submitAll(context.Background(), &Engine{Workers: 1}, batch)
	par := submitAll(context.Background(), &Engine{Workers: 4}, batch)
	solvedAll(t, seq)
	solvedAll(t, par)
	for i := range batch {
		a, b := fingerprint(seq[i]), fingerprint(par[i])
		if a != b {
			t.Errorf("instance %d diverged:\nsequential: %s\nparallel:   %s", i, a, b)
		}
	}
}

// TestEngineResultsValid: every engine result must pass the problem
// validator against its own instance.
func TestEngineResultsValid(t *testing.T) {
	batch, customers := engineWorkload(t, 6, 400)
	defer customers.Close()
	out := submitAll(context.Background(), &Engine{}, batch)
	solvedAll(t, out)
	for i, r := range out {
		if r.Label != batch[i].Label {
			t.Errorf("instance %d mislabeled: %q", i, r.Label)
		}
		if batch[i].Solver == "ca" {
			if r.Result.Kind != SolverApproximate || r.Result.ErrorBound <= 0 {
				t.Errorf("instance %d: CA result missing its error bound: %+v", i, r.Result.Kind)
			}
			continue // approximate: validate feasibility only via engine result size
		}
		if err := Validate(batch[i].Providers, customers, &r.Result.Result); err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
	}
}

// TestEngineErrors: per-instance failures are isolated; a malformed
// instance is rejected without reaching a worker.
func TestEngineErrors(t *testing.T) {
	batch, customers := engineWorkload(t, 3, 200)
	defer customers.Close()
	batch[1].Solver = "no-such-solver"
	out := submitAll(context.Background(), &Engine{}, batch)
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "no-such-solver") {
		t.Errorf("instance 1 error = %v", out[1].Err)
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Errorf("healthy instances failed: %v, %v", out[0].Err, out[2].Err)
	}

	if r := <-(&Engine{}).Submit(context.Background(), Instance{}); r.Err == nil || r.Worker != -1 {
		t.Errorf("nil Customers not rejected: err %v, worker %d", r.Err, r.Worker)
	}
}

// TestCloneIsolation: cloned handles see the same data but keep
// independent buffers and I/O counters, and closing a clone does not
// invalidate the original.
func TestCloneIsolation(t *testing.T) {
	_, customers := engineWorkload(t, 1, 300)
	defer customers.Close()
	clone, err := customers.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.Len() != customers.Len() {
		t.Fatalf("clone sees %d customers, want %d", clone.Len(), customers.Len())
	}
	if clone.BufferFrames() != customers.BufferFrames() {
		t.Fatalf("clone buffer %d frames, want %d", clone.BufferFrames(), customers.BufferFrames())
	}
	customers.ResetIOStats()
	if _, err := clone.KNN(Point{X: 500, Y: 500}, 10); err != nil {
		t.Fatal(err)
	}
	if got := customers.IOStats(); got.Faults != 0 || got.Hits != 0 {
		t.Errorf("clone reads leaked into the original's counters: %+v", got)
	}
	if got := clone.IOStats(); got.LogicalReads() == 0 {
		t.Error("clone performed no reads")
	}
	if err := clone.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := customers.KNN(Point{X: 1, Y: 1}, 1); err != nil {
		t.Errorf("original handle broken after clone close: %v", err)
	}
}

// TestBufferFramesClamped: a buffer fraction sizes the buffer from the
// store's page count, and tiny stores must yield an explicit one-frame
// buffer, observable through BufferFrames (the silent under-sizing fix).
func TestBufferFramesClamped(t *testing.T) {
	store := storage.NewMemStore(32)
	for i := 0; i < 200; i++ {
		store.Alloc()
	}
	if got := (IndexConfig{BufferFraction: 0.01}).frames(store); got != 2 {
		t.Errorf("1%% of 200 pages = %d frames, want 2", got)
	}
	pts := []Point{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	customers, err := IndexCustomersConfig(pts, IndexConfig{BufferFraction: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer customers.Close()
	if got := customers.BufferFrames(); got != 1 {
		t.Errorf("BufferFrames = %d, want explicit clamp to 1 on a tiny store", got)
	}
}

// BenchmarkEngineBatch compares a sequential loop against the bounded
// worker pool on the same batch. The acceptance target is ≥ 2× speedup
// for workers=GOMAXPROCS on a multi-core box, with per-instance results
// identical (TestEngineMatchesSequential asserts that part).
func BenchmarkEngineBatch(b *testing.B) {
	nWorkers := runtime.GOMAXPROCS(0)
	if nWorkers < 2 {
		nWorkers = 2 // keep the pool path exercised even on one core
	}
	batch, customers := engineWorkload(b, 2*nWorkers, 1500)
	defer customers.Close()
	for i := range batch {
		batch[i].Solver = "ida" // uniform cost so speedup reflects the pool
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{fmt.Sprintf("parallel-%d", nWorkers), nWorkers},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			// CacheSize -1: repeated iterations must measure real solves,
			// not cross-instance cache hits.
			engine := &Engine{Workers: cfg.workers, CacheSize: -1}
			defer engine.Close()
			for i := 0; i < b.N; i++ {
				solvedAll(b, submitAll(context.Background(), engine, batch))
			}
		})
	}
}
