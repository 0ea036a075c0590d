package cca

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/sched"
)

// Lane is a scheduling priority class; see the sched package. The zero
// value is LaneInteractive, so ad-hoc Submit calls get low latency by
// default; bulk work should mark its instances LaneBatch.
type Lane = sched.Lane

// Scheduling lanes for Instance.Lane.
const (
	// LaneInteractive is drained before LaneBatch, so small interactive
	// solves are never starved behind huge batch instances.
	LaneInteractive = sched.Interactive
	// LaneBatch is the bulk lane for throughput work.
	LaneBatch = sched.Batch
)

// ErrEngineClosed is reported by submissions made after Engine.Close.
var ErrEngineClosed = errors.New("cca: engine is closed")

// Instance is one independent CCA scenario: a provider set, a customer
// dataset, and the solver to run. Several instances may reference the
// same *Customers — the engine gives every in-flight solve its own cold
// handle (Customers.Clone), so LRU buffers and I/O counters never race
// and results do not depend on scheduling order.
type Instance struct {
	// Label identifies the instance in results (optional).
	Label string
	// Providers is the capacitated provider set Q.
	Providers []Provider
	// Customers is the indexed customer set P.
	Customers *Customers
	// Solver is the registry name to run ("" selects "ida").
	Solver string
	// Options tunes the solve; the zero value is the paper's defaults.
	Options SolverOptions
	// Lane selects the scheduling priority (default LaneInteractive).
	// Lanes change only when an instance runs, never its result.
	Lane Lane
	// NoCache excludes this instance from the engine's cross-instance
	// result cache (no lookup, no insertion). Set it when the instance
	// can never repeat — e.g. a server solving a per-request dataset
	// whose identity is unique — so one-shot solves do not evict
	// reusable entries.
	NoCache bool
}

// InstanceResult is one instance's outcome.
type InstanceResult struct {
	// Label echoes Instance.Label.
	Label string
	// Solver is the canonical name of the solver that ran (the
	// requested name when Err is set before a solver ran).
	Solver string
	// Result is the matching (nil when Err is set). Results served from
	// the engine's cross-instance cache are shared — treat as read-only.
	Result *SolverResult
	// Err is the instance's failure, if any; other instances still run.
	Err error
	// Wall is this instance's own solve time (near zero on a cache hit).
	Wall time.Duration
	// QueueWait is the time the instance waited for a worker.
	QueueWait time.Duration
	// Worker is the index of the pool worker that ran the instance
	// (-1 when it never reached a worker).
	Worker int
	// Cached reports that Result was served from the engine's
	// cross-instance result cache instead of being recomputed.
	Cached bool
}

// DefaultCacheSize is the result cache capacity an Engine with
// CacheSize 0 uses.
const DefaultCacheSize = 256

// Engine executes CCA instances across a long-lived bounded worker pool.
// The zero value is ready to use:
//
//	var engine cca.Engine
//	res := <-engine.Submit(ctx, cca.Instance{Providers: q, Customers: p})
//
// Submit is the engine's one entry point: it enqueues a single instance
// and returns its result channel, so a batch is Submit in a loop
// followed by one receive per channel. Submissions honor context
// cancellation — a dead context stops an instance before it is
// scheduled and interrupts its solve between augmenting iterations.
// Identical instances (same dataset, providers, solver, and options)
// are served from a digest-keyed LRU result cache; CacheStats reports
// its hit rate.
//
// Per-instance results are byte-identical to running the instances
// sequentially (every solve starts on a fresh cold buffer handle), so
// Workers only changes wall-clock time, never answers.
//
// The pool and cache are created on first use and freed by Close (or by
// the garbage collector when an unclosed Engine becomes unreachable).
// Workers, DefaultSolver, and CacheSize must be set before first use;
// later mutations are ignored.
type Engine struct {
	// Workers bounds the number of concurrent solves; values < 1 select
	// runtime.GOMAXPROCS(0).
	Workers int
	// DefaultSolver is used by instances with an empty Solver field
	// ("" selects "ida").
	DefaultSolver string
	// CacheSize bounds the cross-instance result cache: 0 selects
	// DefaultCacheSize, negative disables caching.
	CacheSize int

	mu     sync.Mutex
	pool   *sched.Pool
	cache  *lru.Cache[resultKey, *SolverResult]
	closed bool
}

// service returns the engine's pool, building it (and the result cache)
// on first use. It returns nil once the engine is closed.
func (e *Engine) service() *sched.Pool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	if e.pool == nil {
		e.pool = sched.New(sched.Config{Workers: e.Workers})
		if e.CacheSize >= 0 {
			size := e.CacheSize
			if size == 0 {
				size = DefaultCacheSize
			}
			e.cache = lru.New[resultKey, *SolverResult](size)
		}
		// A dropped, unclosed Engine must not leak its workers: close
		// the pool when the Engine becomes unreachable. Queued tasks
		// keep the Engine reachable through their closures, so cleanup
		// cannot fire while work is still pending.
		runtime.AddCleanup(e, func(p *sched.Pool) { p.Close() }, e.pool)
	}
	return e.pool
}

// Close stops accepting new submissions, waits for queued and in-flight
// instances to finish, and releases the workers. Idempotent and safe
// for concurrent callers. A never-used Engine closes trivially, without
// ever spinning up a pool.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	p := e.pool
	e.mu.Unlock()
	if p != nil {
		p.Close()
	}
}

// CacheStats returns the result cache's lifetime hit/miss/eviction
// counters (all zero when caching is disabled or the engine has not run
// anything yet).
func (e *Engine) CacheStats() lru.Stats {
	e.mu.Lock()
	c := e.cache
	e.mu.Unlock()
	if c == nil {
		return lru.Stats{}
	}
	return c.Stats()
}

// PoolMetrics returns the scheduler's lifetime telemetry: queue depth,
// aggregate and per-worker utilization, and queue-wait statistics (the
// zero Metrics before the engine first runs anything). Completion
// accounting lands just after a result is delivered, so a metric read
// racing the last delivery may trail by a task; Close first for final
// numbers.
func (e *Engine) PoolMetrics() sched.Metrics {
	e.mu.Lock()
	p := e.pool
	e.mu.Unlock()
	if p == nil {
		return sched.Metrics{}
	}
	return p.Metrics()
}

// TableMemoStats always returns zero counters: the engine keeps no
// distance-table memo, since the solver registry builds each solve's
// table. It exists only so perfbench/, which reports it, still builds.
//
// Deprecated: always zero; do not use.
func (e *Engine) TableMemoStats() lru.Stats { return lru.Stats{} }

// solverFor resolves an instance's solver name.
func (e *Engine) solverFor(in Instance) string {
	if in.Solver != "" {
		return in.Solver
	}
	if e.DefaultSolver != "" {
		return e.DefaultSolver
	}
	return "ida"
}
