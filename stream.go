package cca

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/solver"
)

// Submit enqueues one instance on the engine's scheduler and returns a
// 1-buffered channel that receives exactly one InstanceResult and is
// then closed. Submission never blocks: a nil Customers, a closed
// engine, or an already-dead context produce an immediate error result.
// Once running, the solve observes ctx between augmenting iterations,
// so cancelling returns an InstanceResult whose Err is ctx.Err() without
// computing the matching to completion.
//
//	ch := engine.Submit(ctx, cca.Instance{Providers: q, Customers: p})
//	res := <-ch
func (e *Engine) Submit(ctx context.Context, in Instance) <-chan InstanceResult {
	if ctx == nil {
		ctx = context.Background()
	}
	ch := make(chan InstanceResult, 1)
	deliver := func(r InstanceResult) {
		ch <- r
		close(ch)
	}
	base := InstanceResult{Label: in.Label, Solver: e.solverFor(in), Worker: -1}
	if in.Customers == nil {
		base.Err = errors.New("cca: engine: instance has nil Customers")
		deliver(base)
		return ch
	}
	// Fail fast instead of queueing work that cannot run: a Submit with
	// an already-cancelled context returns promptly.
	if err := ctx.Err(); err != nil {
		base.Err = err
		deliver(base)
		return ch
	}
	pool := e.service()
	if pool == nil {
		base.Err = ErrEngineClosed
		deliver(base)
		return ch
	}
	// The queue span covers scheduler dispatch: Submit → a worker picks
	// the task up. It ends inside the task, stamped with the lane and the
	// worker that ran it.
	qspan := obs.FromContext(ctx).StartChild("queue")
	err := pool.Submit(ctx, in.Lane, func(ctx context.Context, info sched.TaskInfo) {
		qspan.SetStr("lane", info.Lane.String())
		qspan.SetInt("worker", int64(info.Worker))
		qspan.End()
		r := e.runOne(ctx, in)
		r.Worker = info.Worker
		r.QueueWait = info.QueueWait
		deliver(r)
	})
	if err != nil {
		qspan.End()
		base.Err = ErrEngineClosed
		deliver(base)
	}
	return ch
}

// runOne executes a single instance on its own dataset handle, serving
// repeats from the result cache. The named return matters: the deferred
// Wall stamp must land on the value the caller receives.
func (e *Engine) runOne(ctx context.Context, in Instance) (out InstanceResult) {
	out = InstanceResult{Label: in.Label, Solver: e.solverFor(in)}
	begin := time.Now()
	defer func() { out.Wall = time.Since(begin) }()

	ctx, span := obs.Start(ctx, "solve")
	defer span.End()

	// A queued instance whose context died before a worker picked it up
	// reports the cancellation without touching the dataset.
	if err := ctx.Err(); err != nil {
		out.Err = err
		return out
	}
	s, err := solver.Get(out.Solver)
	if err != nil {
		out.Err = fmt.Errorf("cca: engine: %s: %w", out.Solver, err)
		return out
	}
	out.Solver = s.Name() // canonicalize aliases/casing ("SM" → "greedy")
	span.SetStr("solver", out.Solver)

	key, cacheable := e.resultKeyFor(s.Name(), in)
	if cacheable {
		if res, ok := e.cache.Get(key); ok {
			out.Result = res
			out.Cached = true
			span.SetInt("cached", 1)
			return out
		}
	}
	span.SetInt("cached", 0)

	handle, err := in.Customers.Clone()
	if err != nil {
		out.Err = fmt.Errorf("cca: engine: clone dataset: %w", err)
		return out
	}
	defer handle.Close()

	res, err := s.Solve(ctx, in.Providers, handle, in.Options)
	if err != nil {
		out.Err = fmt.Errorf("cca: engine: %s: %w", out.Solver, err)
		return out
	}
	out.Result = res
	if cacheable {
		e.cache.Put(key, res)
	}
	return out
}

// resultKey identifies a solve for the cross-instance result cache.
// The dataset field is the Customers' process-unique identity (shared
// by clones, never by distinct datasets) and the metric rides along as
// an interface value, so two instances hit the same entry only when
// they read the same data, measure with the same metric instance, and
// hash to the same instance digest.
type resultKey struct {
	dataset uint64
	metric  geo.Metric
	digest  [32]byte
}

// resultKeyFor builds an instance's cache key. The second return is
// false when the instance cannot be cached safely or usefully: caching
// disabled, the instance opted out (NoCache), options carrying an
// opaque function (CustomerCap) whose behaviour the digest cannot
// observe, or a metric whose dynamic type cannot be a map key (the key
// embeds the interface value; hashing a non-comparable type would
// panic).
func (e *Engine) resultKeyFor(canonical string, in Instance) (resultKey, bool) {
	if e.cache == nil || in.NoCache || in.Options.Core.CustomerCap != nil {
		return resultKey{}, false
	}
	// reflect.Value.Comparable checks the value, not just its type: a
	// comparable struct type can still hold a non-comparable value in an
	// interface-typed field, and hashing that would panic.
	if m := in.Options.Core.Metric; m != nil && !reflect.ValueOf(m).Comparable() {
		return resultKey{}, false
	}
	h := sha256.New()
	var scratch [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	putF := func(f float64) { put64(math.Float64bits(f)) }
	putBool := func(b bool) {
		if b {
			put64(1)
		} else {
			put64(0)
		}
	}
	h.Write([]byte(canonical))
	h.Write([]byte{0})
	put64(uint64(len(in.Providers)))
	for _, q := range in.Providers {
		putF(q.Pt.X)
		putF(q.Pt.Y)
		put64(uint64(int64(q.Cap)))
	}
	o := in.Options
	putF(o.Delta)
	put64(uint64(int64(o.Refinement)))
	putF(o.Core.Theta)
	putBool(o.Core.DisablePUA)
	putBool(o.Core.DisableTheorem2)
	putBool(o.Core.DisableANN)
	put64(uint64(int64(o.Core.ANNGroupSize)))
	putF(o.Core.Space.Min.X)
	putF(o.Core.Space.Min.Y)
	putF(o.Core.Space.Max.X)
	putF(o.Core.Space.Max.Y)
	put64(uint64(int64(o.Core.TotalCustomerCap)))
	put64(uint64(int64(o.Core.PairCapacity)))
	// Sharding knobs that change the matching. ShardWorkers is omitted
	// on purpose: it only alters wall-clock time (the sharded merge is
	// deterministic across worker counts — pinned by the determinism
	// suite), so instances differing only in it share a cache entry.
	put64(uint64(int64(o.Core.Shards)))
	putF(o.Core.ShardBoundary)

	key := resultKey{dataset: in.Customers.id, metric: o.Core.Metric}
	h.Sum(key.digest[:0])
	return key, true
}
