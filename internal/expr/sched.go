package expr

import (
	"context"
	"sync"

	"repro/internal/sched"
)

// runPoints executes one job per experiment point on the configured
// scheduler (internal/sched, the execution core behind cca.Engine) and
// concatenates the returned rows in point order, so tables read
// identically no matter how many workers ran the sweep. One point is
// one generated workload plus the algorithms measured on it: those
// algorithms stay sequential on a cold-dropped buffer, preserving the
// paper's measurement protocol, while distinct points run concurrently
// when the pool has more than one worker (ccabench -stream). A nil
// Pool runs the points on a one-worker pool for this call only. The
// first error wins; other points still run to completion.
func (c Config) runPoints(n int, job func(i int) ([]Row, error)) ([]Row, error) {
	p := c.Pool
	if p == nil {
		p = sched.New(sched.Config{Workers: 1})
		defer p.Close()
	}
	type point struct {
		rows []Row
		err  error
	}
	outs := make([]point, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		err := p.Submit(context.Background(), sched.Batch, func(context.Context, sched.TaskInfo) {
			defer wg.Done()
			rows, err := job(i)
			outs[i] = point{rows: rows, err: err}
		})
		if err != nil {
			wg.Done()
			outs[i] = point{err: err}
		}
	}
	wg.Wait()
	var rows []Row
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		rows = append(rows, o.rows...)
	}
	return rows, nil
}
