package cca

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// Server lifecycle hardening: a long-lived daemon closes its engine on
// drain while stragglers may still be submitting. None of these paths
// may panic; all must return clean errors.

// Double (and concurrent) Close must be idempotent on both a used and a
// never-used engine.
func TestEngineDoubleClose(t *testing.T) {
	// Never used: no pool was ever spun up.
	var idle Engine
	idle.Close()
	idle.Close()

	// Used: pool exists, queued work drains before the first Close
	// returns, the second is a no-op.
	batch, customers := engineWorkload(t, 3, 120)
	defer customers.Close()
	used := &Engine{Workers: 2}
	solvedAll(t, submitAll(context.Background(), used, batch))
	used.Close()
	used.Close()

	// Concurrent closers must all return (sched.Pool.Close waits for the
	// workers) without panicking or deadlocking.
	racy := &Engine{Workers: 2}
	solvedAll(t, submitAll(context.Background(), racy, batch[:1]))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			racy.Close()
		}()
	}
	wg.Wait()
}

// Submissions after Close, singly or as a batch, must report
// ErrEngineClosed per instance instead of panicking or hanging.
func TestEngineSubmitAfterClose(t *testing.T) {
	batch, customers := engineWorkload(t, 2, 120)
	defer customers.Close()

	e := &Engine{Workers: 2}
	solvedAll(t, submitAll(context.Background(), e, batch[:1]))
	e.Close()

	r := <-e.Submit(context.Background(), batch[0])
	if !errors.Is(r.Err, ErrEngineClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrEngineClosed", r.Err)
	}
	if r.Worker != -1 {
		t.Fatalf("rejected instance reports worker %d, want -1", r.Worker)
	}

	for i, r := range submitAll(context.Background(), e, batch) {
		if !errors.Is(r.Err, ErrEngineClosed) {
			t.Fatalf("instance %d: err = %v, want ErrEngineClosed", i, r.Err)
		}
	}

	// A closed engine's telemetry stays readable.
	if m := e.PoolMetrics(); m.Workers != 2 {
		t.Fatalf("PoolMetrics after Close: workers = %d, want 2", m.Workers)
	}
	_ = e.CacheStats()
}

// Submit on a never-used closed engine must not lazily build a pool.
func TestEngineSubmitOnClosedFreshEngine(t *testing.T) {
	batch, customers := engineWorkload(t, 1, 60)
	defer customers.Close()

	e := &Engine{}
	e.Close()
	r := <-e.Submit(context.Background(), batch[0])
	if !errors.Is(r.Err, ErrEngineClosed) {
		t.Fatalf("err = %v, want ErrEngineClosed", r.Err)
	}
	if m := e.PoolMetrics(); m.Workers != 0 {
		t.Fatalf("closed fresh engine grew a pool: %+v", m)
	}
}

// Close racing in-flight Submits: every submission either completes with
// a result or reports ErrEngineClosed; nothing panics, nothing hangs.
func TestEngineCloseRacesSubmit(t *testing.T) {
	batch, customers := engineWorkload(t, 4, 120)
	defer customers.Close()

	e := &Engine{Workers: 2}
	var wg sync.WaitGroup
	results := make(chan InstanceResult, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results <- <-e.Submit(context.Background(), batch[i%len(batch)])
		}(i)
	}
	e.Close()
	wg.Wait()
	close(results)
	for r := range results {
		if r.Err != nil && !errors.Is(r.Err, ErrEngineClosed) {
			t.Fatalf("unexpected error: %v", r.Err)
		}
		if r.Err == nil && r.Result == nil {
			t.Fatal("successful instance without a result")
		}
	}
}
