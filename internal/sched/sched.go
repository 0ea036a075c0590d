// Package sched is the repository's streaming work scheduler: a
// long-lived, bounded worker pool with priority lanes, context-aware
// tasks, and per-worker telemetry. It is the execution core under
// cca.Engine (batch and streaming solves) and the experiment harness's
// figure sweeps — any component that needs "run these independent jobs
// on W workers without starving the small ones" submits here instead of
// hand-rolling its own goroutine pool.
//
// Scheduling model. A Pool owns a fixed set of workers and one FIFO
// queue per Lane. Workers always drain the Interactive lane before
// touching the Batch lane, so short latency-sensitive jobs overtake
// bulk work that was queued earlier; within a lane, order is FIFO.
// Tasks carry the submitter's context; the pool itself never cancels a
// running task — it hands the context to the task, which is expected to
// observe it (the CCA solvers check it between augmenting iterations).
//
// Telemetry. The pool records per-worker busy time and task counts,
// plus queue-wait (submit → execution start) aggregates. Callers can
// snapshot Metrics around a batch and diff the two snapshots to get
// batch-scoped utilization.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// Lane is a priority class for submitted tasks.
type Lane int

const (
	// Interactive is the low-latency lane: workers drain it before the
	// Batch lane, so small solves are never starved by bulk work.
	Interactive Lane = iota
	// Batch is the bulk lane for large or throughput-oriented work.
	Batch

	numLanes
)

// String implements fmt.Stringer.
func (l Lane) String() string {
	switch l {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return "unknown"
	}
}

// ErrClosed is returned by Submit after Close has been called.
var ErrClosed = errors.New("sched: pool is closed")

// TaskInfo tells a running task where and how it was scheduled.
type TaskInfo struct {
	// Worker is the index (0..Workers-1) of the worker running the task.
	Worker int
	// Lane is the lane the task was submitted on.
	Lane Lane
	// QueueWait is the time the task spent queued before a worker
	// picked it up.
	QueueWait time.Duration
}

// Task is one unit of work. The context is the submitter's; a task that
// can run long should observe it.
type Task func(ctx context.Context, info TaskInfo)

// Config sizes a Pool.
type Config struct {
	// Workers bounds concurrency; values < 1 select runtime.GOMAXPROCS(0).
	Workers int
}

// WorkerStats describes one worker's activity.
type WorkerStats struct {
	Tasks int           // tasks completed by this worker
	Busy  time.Duration // total time spent running tasks
	// Utilization is Busy divided by the observation window (pool uptime
	// for Pool.Metrics; the batch wall for engine batch diffs).
	Utilization float64
}

// Metrics is a snapshot of a pool's activity since New. Completion
// accounting for a task lands just after the task function returns —
// i.e. after any result the task delivered became observable — so a
// snapshot racing the last delivery may trail by a task; Close the pool
// first for final numbers.
type Metrics struct {
	Workers      int           // pool size
	Submitted    int           // tasks accepted by Submit
	Completed    int           // tasks that finished running
	Queued       int           // tasks currently waiting, all lanes
	QueueWait    time.Duration // Σ queue wait over completed tasks
	MaxQueueWait time.Duration // worst single queue wait observed
	Uptime       time.Duration // time since the pool was created
	PerWorker    []WorkerStats // per-worker breakdown
}

// task is one queued unit.
type task struct {
	ctx  context.Context
	fn   Task
	lane Lane
	enq  time.Time
}

// laneQueue is a FIFO with an advancing head index, so popping is O(1)
// instead of sliding the whole backlog on every dequeue; popped slots
// are zeroed so the backing array does not pin completed tasks, and the
// array is compacted once the dead prefix dominates.
type laneQueue struct {
	items []task
	head  int
}

func (q *laneQueue) push(t task) { q.items = append(q.items, t) }

func (q *laneQueue) len() int { return len(q.items) - q.head }

func (q *laneQueue) pop() (task, bool) {
	if q.head >= len(q.items) {
		return task{}, false
	}
	t := q.items[q.head]
	q.items[q.head] = task{}
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head > 64 && q.head*2 >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		// Clear the vacated tail too: the duplicates left above n would
		// otherwise pin completed tasks' closures until overwritten.
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return t, true
}

// Pool is a long-lived bounded worker pool. Build one with New; it is
// safe for concurrent Submit from any number of goroutines.
type Pool struct {
	workers int
	start   time.Time

	mu     sync.Mutex
	cond   *sync.Cond
	queues [numLanes]laneQueue
	closed bool

	submitted    int
	completed    int
	queueWait    time.Duration
	maxQueueWait time.Duration
	perWorker    []WorkerStats

	wg sync.WaitGroup
}

// New builds and starts a pool.
func New(cfg Config) *Pool {
	w := cfg.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers:   w,
		start:     time.Now(),
		perWorker: make([]WorkerStats, w),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(w)
	for i := 0; i < w; i++ {
		go p.worker(i)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Submit enqueues fn on the given lane. It never blocks on workers (the
// queues are unbounded) and returns ErrClosed after Close. A nil ctx is
// treated as context.Background(). Submit does not reject tasks whose
// context is already cancelled — the task still runs (immediately
// observing the dead context); callers wanting fail-fast behaviour
// should check ctx.Err() before submitting.
func (p *Pool) Submit(ctx context.Context, lane Lane, fn Task) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if lane < 0 || lane >= numLanes {
		lane = Batch
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.queues[lane].push(task{ctx: ctx, fn: fn, lane: lane, enq: time.Now()})
	p.submitted++
	p.mu.Unlock()
	p.cond.Signal()
	return nil
}

// Close stops accepting new tasks, runs everything already queued to
// completion, and waits for the workers to exit. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Metrics returns a snapshot of the pool's counters. Per-worker
// utilization is measured against pool uptime.
func (p *Pool) Metrics() Metrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	up := time.Since(p.start)
	m := Metrics{
		Workers:      p.workers,
		Submitted:    p.submitted,
		Completed:    p.completed,
		QueueWait:    p.queueWait,
		MaxQueueWait: p.maxQueueWait,
		Uptime:       up,
		PerWorker:    make([]WorkerStats, len(p.perWorker)),
	}
	for lane := range p.queues {
		m.Queued += p.queues[lane].len()
	}
	copy(m.PerWorker, p.perWorker)
	if up > 0 {
		for i := range m.PerWorker {
			m.PerWorker[i].Utilization = float64(m.PerWorker[i].Busy) / float64(up)
		}
	}
	return m
}

// popLocked removes the next task, draining the Interactive lane first.
// Caller holds p.mu.
func (p *Pool) popLocked() (task, bool) {
	for lane := range p.queues {
		if t, ok := p.queues[lane].pop(); ok {
			return t, true
		}
	}
	return task{}, false
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for {
			if t, ok := p.popLocked(); ok {
				p.mu.Unlock()
				p.run(id, t)
				break
			}
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
		}
	}
}

func (p *Pool) run(id int, t task) {
	wait := time.Since(t.enq)
	start := time.Now()
	t.fn(t.ctx, TaskInfo{Worker: id, Lane: t.lane, QueueWait: wait})
	busy := time.Since(start)

	p.mu.Lock()
	st := &p.perWorker[id]
	st.Tasks++
	st.Busy += busy
	p.completed++
	p.queueWait += wait
	if wait > p.maxQueueWait {
		p.maxQueueWait = wait
	}
	p.mu.Unlock()
}
