package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
	"repro/internal/lru"
)

// The traced runs. Per-layer numbers are measured from outside the
// program: the span tree trace=1 already returns, /metrics deltas,
// response fields, the Engine's public cache statistics, and timed
// direct calls into layer functions from benchmark code. Layers a
// workload bypasses report 0.

// spanTotals sums, over the tree, the durations of the spans named
// name and their numeric attribute attr.
func spanTotals(t *client.TraceSpan, name, attr string) (dur time.Duration, val float64) {
	if t == nil {
		return 0, 0
	}
	if t.Name == name {
		dur += time.Duration(t.DurNS)
		if v, ok := t.Attrs[attr].(float64); ok {
			val += v
		}
	}
	for _, c := range t.Children {
		d, v := spanTotals(c, name, attr)
		dur += d
		val += v
	}
	return dur, val
}

// passResult is one pass of the timed requests over a fresh ccad.
type passResult struct {
	ops           []solveOp
	cache, memo   lru.Stats // engine result cache and table memo, timed pass only
	memoEntries   uint64    // table memo entries at the end of the pass
	before, after map[string]float64
}

// servePass boots a fresh ccad, warms it up, and runs the timed
// requests, traced or not.
func (in *solveInputs) servePass(dataDir, stateDir string, traced bool, rep *report) (*passResult, error) {
	d, _, _, err := in.bootFirst(dataDir, stateDir, rep)
	if err != nil {
		return nil, err
	}
	defer d.stop(true)
	in.pass(d, in.warm, false, nil, rep)
	out := &passResult{}
	c0, m0 := d.engine.CacheStats(), d.engine.TableMemoStats()
	if out.before, err = scrape(d); err != nil {
		return nil, err
	}
	quiesce()
	out.ops = in.pass(d, in.timed, traced, nil, rep)
	if out.after, err = scrape(d); err != nil {
		return nil, err
	}
	c1, m1 := d.engine.CacheStats(), d.engine.TableMemoStats()
	out.cache = lru.Stats{Hits: c1.Hits - c0.Hits, Misses: c1.Misses - c0.Misses, Evictions: c1.Evictions - c0.Evictions}
	out.memo = lru.Stats{Hits: m1.Hits - m0.Hits, Misses: m1.Misses - m0.Misses, Evictions: m1.Evictions - m0.Evictions}
	out.memoEntries = m1.Misses - m1.Evictions
	return out, nil
}

// layers is the traced run of a solve workload: an untraced pass (the
// tracing-overhead baseline), a traced pass of the same inputs on a
// fresh ccad, benchmark-side timing of the engine's table-memo build,
// and the in-process solver counters. The two passes must agree on
// every deterministic counter.
func (in *solveInputs) layers(cfg config, dataDir string, rep *report) error {
	plain, err := in.servePass(dataDir, filepath.Join(cfg.dir, "state-plain"), false, rep)
	if err != nil {
		return err
	}
	traced, err := in.servePass(dataDir, filepath.Join(cfg.dir, "state-traced"), true, rep)
	if err != nil {
		return err
	}
	n := len(traced.ops)
	var plainLat, lat, overhead, queue, build, augment, iters, query, calls, faults, kb []float64
	for i, op := range traced.ops {
		p := plain.ops[i]
		if p.res.Size != op.res.Size || math.Float64bits(p.res.Cost) != math.Float64bits(op.res.Cost) || p.fleet.Faults != op.fleet.Faults {
			rep.check(fmt.Errorf("request %d: untraced and traced passes disagree (size %d/%d, cost %v/%v, faults %d/%d)",
				i, p.res.Size, op.res.Size, p.res.Cost, op.res.Cost, p.fleet.Faults, op.fleet.Faults))
		}
		plainLat = append(plainLat, ms(p.lat))
		lat = append(lat, ms(op.lat))
		overhead = append(overhead, ms(op.lat-time.Duration(op.res.WallNS+op.res.QueueWaitNS)))
		queue = append(queue, ms(time.Duration(op.res.QueueWaitNS)))
		b, _ := spanTotals(op.trace, "flowgraph-build", "")
		a, it := spanTotals(op.trace, "augment", "iterations")
		q, c := spanTotals(op.trace, "netmetric-query", "calls")
		build, augment, iters = append(build, ms(b)), append(augment, ms(a)), append(iters, it)
		query, calls = append(query, ms(q)), append(calls, c)
		faults = append(faults, float64(op.fleet.Faults))
		kb = append(kb, float64(p.bytes)/1024)
	}
	if plain.cache != traced.cache || plain.memo != traced.memo {
		rep.check(fmt.Errorf("engine cache counters differ between passes (%+v/%+v vs %+v/%+v)",
			plain.cache, plain.memo, traced.cache, traced.memo))
	}

	// Attribute the engine's table-memo build (unspanned "solve" self
	// time): time BuildTable on the same provider sets from here.
	var tableBuild []float64
	var tableMB, chBuild float64
	if in.spec.metric == "network" {
		m := netMetric(solveGrid, in.netSeed)
		var mb []float64
		for i := 0; i < n; i += 4 {
			pts := make([]geo.Point, len(in.timed[i]))
			for j, p := range in.timed[i] {
				pts[j] = geo.Point{X: p.X, Y: p.Y}
			}
			t0 := time.Now()
			t := m.BuildTable(pts, 0)
			tableBuild = append(tableBuild, ms(time.Since(t0)))
			if t == nil {
				return fmt.Errorf("BuildTable declined request %d", i)
			}
			mb = append(mb, float64(t.Coverage()*m.NumNodes()*8)/(1<<20))
		}
		tableMB = mean(mb) * float64(traced.memoEntries)
		chBuild = timeCHBuild(solveGrid, in.netSeed)
	}
	counters, err := in.inProcess(traced.ops, rep)
	if err != nil {
		return err
	}
	var esub, keyUpd, nn []float64
	for _, c := range counters {
		esub, keyUpd, nn = append(esub, float64(c.SubgraphEdges)), append(keyUpd, float64(c.KeyUpdates)), append(nn, float64(c.NNRetrievals))
	}

	before, after := traced.before, traced.after
	rep.set("server.overhead_ms", median(overhead), n)
	rep.set("server.resp_kb_per_op", mean(kb), n)
	rep.set("sched.queue_wait_ms", median(queue), n)
	rep.set("engine.result_cache_hit_ratio", ratio(float64(traced.cache.Hits), float64(traced.cache.Misses)), n)
	rep.set("engine.table_memo_hit_ratio", ratio(float64(traced.memo.Hits), float64(traced.memo.Misses)), n)
	rep.set("engine.table_memo_mb", tableMB, int(traced.memoEntries))
	rep.set("flowgraph.build_ms", median(build), n)
	rep.set("core.augment_ms", median(augment), n)
	rep.set("core.augment_iterations", mean(iters), n)
	rep.set("core.esub_edges", mean(esub), len(esub))
	rep.set("core.key_updates", mean(keyUpd), len(keyUpd))
	rep.set("rtree.nn_retrievals", mean(nn), len(nn))
	rep.set("storage.faults_per_solve", mean(faults), n)
	rep.set("storage.buffer_hit_ratio", ratio(delta(before, after, "ccad_dataset_buffer_hits_total"), delta(before, after, "ccad_dataset_page_faults_total")), n)
	rep.set("netmetric.table_build_ms", median(tableBuild), len(tableBuild))
	rep.set("netmetric.query_ms", median(query), n)
	rep.set("netmetric.query_calls", mean(calls), n)
	rep.set("netmetric.ch_build_s", chBuild, 1)
	pointUS := 0.0
	if s := mean(calls); s > 0 {
		pointUS = mean(query) * 1000 / s
	}
	rep.set("netmetric.point_query_us", pointUS, int(mean(calls))*n)
	setHitRatios(rep, before, after, n)
	rep.set("obs.trace_overhead_pct", 100*(median(lat)-median(plainLat))/median(plainLat), n)
	layerSum := median(overhead) + median(queue) + median(tableBuild) + median(build) + median(augment)
	rep.set("trace.attributed_pct", 100*layerSum/median(lat), n)
	rep.note("traced p50 %.3f ms = server %.3f + queue %.3f + table-build %.3f + flowgraph-build %.3f + augment %.3f (+ %.3f unattributed)",
		median(lat), median(overhead), median(queue), median(tableBuild), median(build), median(augment), median(lat)-layerSum)
	rep.note("counters: esub=%v key_updates=%v nn=%v augment_iterations=%v faults=%v result_cache=%+v table_memo=%+v",
		esub, keyUpd, nn, sum(iters), sum(faults), traced.cache, traced.memo)
	return nil
}

// setHitRatios reports the network metric's pair/node/snap cache hit
// ratios over the timed window from /metrics deltas.
func setHitRatios(rep *report, before, after map[string]float64, n int) {
	for _, c := range []string{"pair", "node", "snap"} {
		fam := "ccad_netmetric_" + c + "_cache_"
		rep.set("netmetric."+c+"_hit_ratio", ratio(delta(before, after, fam+"hits_total"), delta(before, after, fam+"misses_total")), n)
	}
}

// timeCHBuild times the contraction-hierarchy build of a fresh replica
// of the network: the first point query of a metric with landmarks off
// and the hierarchy forced on triggers it.
func timeCHBuild(grid int, seed int64) float64 {
	m := cca.RoadNetworkMetric(grid, space, seed).(*netmetric.NetworkMetric)
	m.SetLandmarks(0)
	m.SetCH(1)
	t0 := time.Now()
	m.NodeDist(0, int32(m.NumNodes()-1))
	return since(t0)
}

// timedMetric wraps a geo.Metric and accumulates the wall time and
// count of its Dist calls. The dynamic matcher uses no other metric
// capability, so the wrapper changes timings only (the traced replay's
// answers are checked against the untraced one).
type timedMetric struct {
	geo.Metric
	ns    time.Duration
	calls int64
}

func (t *timedMetric) Dist(p, q geo.Point) float64 {
	t0 := time.Now()
	d := t.Metric.Dist(p, q)
	t.ns += time.Since(t0)
	t.calls++
	return d
}

// layers is the traced run of session-churn: the HTTP run once (one
// setup, one restart) for the server, WAL and recovery numbers, the
// untraced in-process replay that checks it and times each event, then
// a replay of the same events through cca.NewDynamicMatcherOpts over a
// timing wrapper of the same network metric, which must reproduce the
// untraced replay exactly. Sessions have no ccad tracing, so
// obs.trace_overhead_pct and trace.attributed_pct are not measured
// here (0 with n=0): the churn split below is a residual, not a check.
func (in *churnInputs) layers(cfg config, rep *report) error {
	run, err := in.drive(cfg, 1, 0, rep)
	if err != nil {
		return err
	}
	exp, took, fins, err := in.replay(netMetric(churnGrid, in.netSeed))
	if err != nil {
		return err
	}
	in.verify(run, exp, fins, rep)
	inner := netMetric(churnGrid, in.netSeed)
	tm := &timedMetric{Metric: inner}
	texp, _, tfins, err := in.replay(tm)
	if err != nil {
		return err
	}
	for pos := range exp {
		if texp[pos] != exp[pos] {
			rep.check(fmt.Errorf("event %d: traced replay %+v, untraced %+v", pos, texp[pos], exp[pos]))
			break
		}
	}
	var st cca.ChurnStats
	for s := range fins {
		if tfins[s] != fins[s] {
			rep.check(fmt.Errorf("session %d: final state differs between replays (%+v vs %+v)", s, tfins[s], fins[s]))
		}
		st.Events += tfins[s].stats.Events
		st.Augments += tfins[s].stats.Augments
		st.Cycles += tfins[s].stats.Cycles
	}

	ops := run.events[in.warm():]
	n := len(ops)
	before, after := run.before, run.after
	walCount := delta(before, after, "ccad_wal_fsync_seconds_count")
	walUS := 0.0
	if walCount > 0 {
		walUS = 1e6 * delta(before, after, "ccad_wal_fsync_seconds_sum") / walCount
	}
	var lat, overhead, kb, event []float64
	for j, op := range ops {
		i := in.warm() + j
		lat = append(lat, ms(op.lat))
		overhead = append(overhead, ms(op.lat-took[i])-walUS/1000)
		kb = append(kb, float64(op.bytes)/1024)
		event = append(event, ms(took[i]))
	}
	byKind := map[datagen.EventKind][]float64{}
	for pos := range in.order {
		k := in.event(pos).Kind
		byKind[k] = append(byKind[k], float64(took[pos])/1e3)
	}
	events := float64(len(in.order))
	_, fallbacks := inner.CHStats()

	rep.set("server.overhead_ms", median(overhead), n)
	rep.set("server.resp_kb_per_op", mean(kb), n)
	rep.set("netmetric.query_ms", ms(tm.ns)/events, len(in.order))
	rep.set("netmetric.query_calls", float64(tm.calls)/events, len(in.order))
	rep.set("netmetric.ch_build_s", timeCHBuild(churnGrid, in.netSeed), 1)
	rep.set("netmetric.point_query_us", float64(tm.ns)/1e3/float64(max(tm.calls, 1)), int(tm.calls))
	setHitRatios(rep, before, after, n)
	rep.set("netmetric.ch_fallbacks", float64(fallbacks), int(tm.calls))
	for _, k := range []datagen.EventKind{datagen.EventArrive, datagen.EventDepart, datagen.EventResize} {
		rep.set("dynamic."+k.String()+"_us", median(byKind[k]), len(byKind[k]))
	}
	rep.set("dynamic.augments", float64(st.Augments), st.Events)
	rep.set("dynamic.cycle_cancels", float64(st.Cycles), st.Events)
	rep.set("wal.append_us", walUS, int(walCount))
	rep.set("wal.bytes_per_event", float64(run.walBytes)/events, len(in.order))
	rep.set("wal.fsyncs_per_event", walCount/float64(n), n)
	rep.set("recovery.ms_per_event", 1000*median(run.recoveries)/events, len(in.order))
	rest := median(lat) - median(overhead) - median(event) - walUS/1000
	rep.note("p50 %.3f ms = server %.3f + matcher event %.3f + WAL append %.3f (+ %.3f unattributed; server is the residual of the other two)",
		median(lat), median(overhead), median(event), walUS/1000, rest)
	rep.note("events: %d arrive / %d depart / %d resize", len(byKind[datagen.EventArrive]), len(byKind[datagen.EventDepart]), len(byKind[datagen.EventResize]))
	rep.note("counters (all sessions): augments=%d cycle_cancels=%d ch_fallbacks=%d dist_calls=%d wal_bytes=%d wal_appends=%v",
		st.Augments, st.Cycles, fallbacks, tm.calls, run.walBytes, walCount)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
