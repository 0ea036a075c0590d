package solver

import (
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
)

// timedMetric wraps a geo.Metric so every Dist call is counted and its
// latency accumulated — the raw material for the trace's synthetic
// "netmetric-query" span and the per-call point-query histogram. It is
// installed only on traced solves (the registry wraps inside Solve,
// after the cache key and the bulk-table swap are settled), so untraced
// hot paths never see it.
type timedMetric struct {
	m     geo.Metric
	hist  *obs.Histogram // optional per-call latency sink (nil observes nothing)
	calls atomic.Int64
	ns    atomic.Int64 // accumulated Dist wall time
}

func (t *timedMetric) Name() string { return t.m.Name() }

func (t *timedMetric) Dist(p, q geo.Point) float64 {
	start := time.Now()
	d := t.m.Dist(p, q)
	el := time.Since(start)
	t.calls.Add(1)
	t.ns.Add(int64(el))
	t.hist.Observe(el.Seconds())
	return d
}
