package cca

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestEngineWorkersZero: zero and negative Workers select a usable
// pool of GOMAXPROCS workers on first use.
func TestEngineWorkersZero(t *testing.T) {
	batch, customers := engineWorkload(t, 1, 60)
	defer customers.Close()
	for _, workers := range []int{0, -3} {
		e := &Engine{Workers: workers}
		solvedAll(t, submitAll(context.Background(), e, batch))
		e.Close()
		if got := e.PoolMetrics().Workers; got != runtime.GOMAXPROCS(0) {
			t.Errorf("Workers %d: pool has %d workers, want GOMAXPROCS = %d", workers, got, runtime.GOMAXPROCS(0))
		}
	}
}

// TestEnginePoolMetrics: every result names the pool worker that ran
// it, and once Close drains the pool its lifetime counters account for
// the whole batch.
func TestEnginePoolMetrics(t *testing.T) {
	batch, customers := engineWorkload(t, 8, 500)
	defer customers.Close()
	engine := &Engine{Workers: 2, CacheSize: -1}
	defer engine.Close()
	out := submitAll(context.Background(), engine, batch)
	solvedAll(t, out)
	for i, r := range out {
		if r.Worker < 0 || r.Worker >= 2 || r.QueueWait < 0 {
			t.Errorf("instance %d: worker %d, queue wait %v", i, r.Worker, r.QueueWait)
		}
	}
	// Close drains the pool, making the lifetime counters final (a
	// snapshot racing the last delivery may trail by a task).
	engine.Close()
	pm := engine.PoolMetrics()
	if pm.Completed != len(batch) || pm.Workers != 2 {
		t.Errorf("pool metrics %+v, want %d completed on 2 workers", pm, len(batch))
	}
	tasks := 0
	for _, w := range pm.PerWorker {
		tasks += w.Tasks
	}
	if tasks != len(batch) {
		t.Errorf("per-worker tasks sum to %d, want %d", tasks, len(batch))
	}
}

// TestSubmitCancelledContext: a Submit with an already-cancelled context
// returns promptly with context.Canceled — the instance never reaches a
// worker.
func TestSubmitCancelledContext(t *testing.T) {
	batch, customers := engineWorkload(t, 1, 200)
	defer customers.Close()
	engine := &Engine{Workers: 2}
	defer engine.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	select {
	case res := <-engine.Submit(ctx, batch[0]):
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("Err = %v, want context.Canceled", res.Err)
		}
		if res.Result != nil || res.Worker != -1 {
			t.Fatalf("cancelled submit still produced %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Submit did not return promptly")
	}
}

// TestRunContextMidBatchCancel: cancelling mid-batch stops scheduling
// new instances — later instances report ctx.Err() without solving —
// while already-finished results stay intact. Run under -race by CI.
func TestRunContextMidBatchCancel(t *testing.T) {
	batch, customers := engineWorkload(t, 16, 600)
	defer customers.Close()
	engine := &Engine{Workers: 1, CacheSize: -1}
	defer engine.Close()

	// Cancel as soon as the first instance completes: with one worker,
	// most of the queue is still waiting at that point.
	ctx, cancel := context.WithCancel(context.Background())
	first := engine.Submit(ctx, batch[0])
	go func() {
		<-first
		cancel()
	}()
	cancelled := 0
	for i, r := range submitAll(ctx, engine, batch) {
		if r.Err == nil {
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("instance %d failed with %v, want context.Canceled", i, r.Err)
		}
		if r.Result != nil {
			t.Fatalf("instance %d has both a result and an error", i)
		}
		cancelled++
	}
	if cancelled == 0 {
		t.Skip("batch finished before cancellation landed (fast machine, tiny batch)")
	}
}

// TestResultCacheHits: repeated identical instances are served from the
// digest-keyed result cache, report Cached, and return the identical
// matching; different instances never collide.
func TestResultCacheHits(t *testing.T) {
	batch, customers := engineWorkload(t, 4, 400)
	defer customers.Close()
	engine := &Engine{Workers: 2}
	defer engine.Close()

	first := submitAll(context.Background(), engine, batch)
	solvedAll(t, first)
	if n := cacheHits(first); n != 0 {
		t.Fatalf("distinct instances produced %d cache hits", n)
	}
	second := submitAll(context.Background(), engine, batch)
	if n := cacheHits(second); n != len(batch) {
		t.Fatalf("second run hit cache %d times, want %d", n, len(batch))
	}
	for i := range batch {
		if fingerprint(first[i]) != fingerprint(second[i]) {
			t.Errorf("instance %d: cached result differs from computed", i)
		}
	}
	st := engine.CacheStats()
	if st.Hits != uint64(len(batch)) || st.Misses != uint64(len(batch)) {
		t.Errorf("cache stats %+v, want %d hits and %d misses", st, len(batch), len(batch))
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate %g, want 0.5", st.HitRate())
	}
}

// cacheHits counts the results served from the result cache.
func cacheHits(results []InstanceResult) int {
	n := 0
	for _, r := range results {
		if r.Cached {
			n++
		}
	}
	return n
}

// TestCacheKeySensitivity: any observable change — providers, solver,
// options, dataset — must miss the cache.
func TestCacheKeySensitivity(t *testing.T) {
	batch, customers := engineWorkload(t, 1, 300)
	defer customers.Close()
	engine := &Engine{}
	defer engine.Close()
	base := batch[0]
	solvedAll(t, submitAll(context.Background(), engine, []Instance{base}))

	providers := append([]Provider(nil), base.Providers...)
	providers[0].Cap++
	variants := []Instance{base, base, base}
	variants[0].Providers = providers
	variants[1].Solver = "nia"
	variants[2].Options.Core.Theta = 2.5
	out := submitAll(context.Background(), engine, variants)
	solvedAll(t, out)
	if n := cacheHits(out); n != 0 {
		t.Fatalf("perturbed instances hit the cache %d times", n)
	}

	// The identical instance, resubmitted via Submit, does hit.
	res := <-engine.Submit(context.Background(), base)
	if res.Err != nil || !res.Cached {
		t.Fatalf("identical resubmission missed the cache: %+v", res.Err)
	}
}

// TestEngineClosed: submissions after Close fail fast with
// ErrEngineClosed instead of hanging.
func TestEngineClosed(t *testing.T) {
	batch, customers := engineWorkload(t, 1, 200)
	defer customers.Close()
	engine := &Engine{Workers: 1}
	engine.Close()
	res := <-engine.Submit(context.Background(), batch[0])
	if !errors.Is(res.Err, ErrEngineClosed) {
		t.Fatalf("Err = %v, want ErrEngineClosed", res.Err)
	}
	engine.Close() // idempotent
}

// TestSubmitTimeout: a deadline interrupts a slow solver (SSPA on a
// deliberately oversized instance) mid-solve.
func TestSubmitTimeout(t *testing.T) {
	batch, customers := engineWorkload(t, 1, 4000)
	defer customers.Close()
	in := batch[0]
	in.Solver = "sspa"
	providers := make([]Provider, 40)
	for i := range providers {
		providers[i] = Provider{Pt: Point{X: float64(25 * i), Y: float64(1000 - 25*i)}, Cap: 100}
	}
	in.Providers = providers

	engine := &Engine{Workers: 1, CacheSize: -1}
	defer engine.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := <-engine.Submit(ctx, in)
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		if res.Err == nil {
			t.Skip("instance solved inside the deadline; nothing to interrupt")
		}
		t.Fatalf("Err = %v, want context.DeadlineExceeded", res.Err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("cancellation took %v, deadline not honored mid-solve", waited)
	}
}

// BenchmarkEngineStream measures the streaming path end to end: a batch
// submitted instance by instance on a warm engine and drained in
// submission order, caching disabled. The CI workflow runs it with
// -benchtime=1x as a scheduler smoke test.
func BenchmarkEngineStream(b *testing.B) {
	nWorkers := runtime.GOMAXPROCS(0)
	if nWorkers < 2 {
		nWorkers = 2
	}
	batch, customers := engineWorkload(b, 2*nWorkers, 1000)
	defer customers.Close()
	for i := range batch {
		batch[i].Solver = "ida"
		batch[i].Lane = LaneBatch
	}
	engine := &Engine{Workers: nWorkers, CacheSize: -1}
	defer engine.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solvedAll(b, submitAll(context.Background(), engine, batch))
	}
	b.ReportMetric(float64(len(batch)), "instances/op")
	if m := engine.PoolMetrics(); m.Completed > 0 {
		b.ReportMetric(float64(m.QueueWait.Nanoseconds())/float64(m.Completed), "queue-wait-ns/instance")
	}
}

// ExampleEngine_Submit demonstrates the streaming engine: a long-lived
// engine serving ad-hoc solves with a deadline.
func ExampleEngine_Submit() {
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Point{X: float64(i % 8), Y: float64(i / 8)}
	}
	customers, _ := IndexCustomers(pts)
	defer customers.Close()

	engine := &Engine{Workers: 2}
	defer engine.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res := <-engine.Submit(ctx, Instance{
		Providers: []Provider{{Pt: Point{X: 3, Y: 3}, Cap: 4}},
		Customers: customers,
	})
	fmt.Println(res.Solver, res.Result.Size, res.Err)
	// Output: ida 4 <nil>
}
