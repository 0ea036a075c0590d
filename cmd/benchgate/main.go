// Command benchgate is the CI perf-regression gate over the committed
// bench trajectories (BENCH_shard.json, BENCH_net.json,
// BENCH_churn.json, and the BENCH_serve.json serve rows). It reads
// each trajectory, compares the
// latest run against its baseline run, and exits non-zero when either
//
//   - a deterministic field drifted — Cost beyond float round-trip
//     noise, matching Size, subgraph |Esub|, IDA key updates (KeyUpd)
//     or page faults — which means a change altered results or the
//     work done, not just speed; or
//   - a performance ratio regressed beyond -tol (default 15%).
//
// Raw CPU times are machine-dependent, so the gate never compares
// nanoseconds across runs. It compares *shapes*: within one run every
// row's CPU is normalized by the run's own reference row (the first row
// of the figure — "serial" for the shard sweep, "euclid" for the net
// sweep), and only those ratios are compared across runs. A machine
// twice as fast shifts every row equally and passes; a hierarchy search
// that got 20% slower relative to the Euclidean floor fails on any
// machine.
//
// The net sweep additionally carries two absolute floors, both stated
// against its plain forward-Dijkstra row: the distance table must keep
// a >= 4x cold-solve speedup, and the contraction hierarchy a >= 26x
// cold point-query speedup (the QueryNS column) — no looser than the
// ratios each optimization was merged on (see BENCH_net.json).
// The churn sweep carries an absolute
// invariant of its own: its exact row must track the full re-solve
// oracle exactly.
//
// Usage:
//
//	benchgate [-tol 0.15] BENCH_net.json BENCH_shard.json BENCH_serve.json BENCH_churn.json
//
// A trajectory with a single run gates only its internal invariants
// (determinism across rows, the net floor); appended runs — ccabench
// -json appends, never overwrites — are gated against the earliest
// compatible run (same scale, metric, shards), so the committed file
// *is* the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/expr"
)

// run mirrors ccabench's trajectoryRun (one element of a figure
// trajectory file).
type run struct {
	Unix    int64                 `json:"unix"`
	Scale   float64               `json:"scale"`
	Metric  string                `json:"metric"`
	Shards  int                   `json:"shards"`
	Workers int                   `json:"workers"`
	Figures map[string][]expr.Row `json:"figures"`
}

// serveRow mirrors ccabench's serve trajectory row (only the gated
// fields).
type serveRow struct {
	Unix     int64 `json:"unix"`
	Requests int   `json:"requests"`
	OK       int   `json:"ok"`
	Errors   int   `json:"errors"`
}

// netFloorSpeedup is the absolute invariant of the net sweep: the
// "table" backend's cold-solve speedup over the "dijkstra" row.
const netFloorSpeedup = 4.0

// chQueryFloorSpeedup is the absolute invariant the contraction
// hierarchy was merged on: CH cold point queries must stay >= 26x
// faster than plain Dijkstra cold point queries (the QueryNS column of
// the net sweep). The floor is on per-query latency, not on row CPU —
// the solve rows share the assignment solver's own work, which
// Amdahl-caps any end-to-end ratio regardless of how fast the backend
// gets. Runs predating the QueryNS column (both values zero) skip the
// check.
const chQueryFloorSpeedup = 26.0

func main() {
	tol := flag.Float64("tol", 0.15, "allowed relative regression of any normalized CPU ratio")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-tol 0.15] BENCH_*.json...")
		os.Exit(2)
	}
	failures := 0
	for _, path := range flag.Args() {
		for _, msg := range gateFile(path, *tol) {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %s\n", path, msg)
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL (%d finding(s))\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

// gateFile checks one trajectory file and returns its findings.
func gateFile(path string, tol float64) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	// Figure trajectories and serve trajectories are both JSON arrays;
	// tell them apart by the presence of "figures" in the first element.
	var runs []run
	if err := json.Unmarshal(data, &runs); err == nil && len(runs) > 0 && runs[0].Figures != nil {
		return gateFigures(runs, tol)
	}
	var rows []serveRow
	if err := json.Unmarshal(data, &rows); err == nil && len(rows) > 0 {
		return gateServe(rows)
	}
	// A legacy single-run object (pre-append format) still gates its
	// internal invariants.
	var one run
	if err := json.Unmarshal(data, &one); err == nil && one.Figures != nil {
		return gateFigures([]run{one}, tol)
	}
	return []string{"unrecognized trajectory format"}
}

// gateFigures gates the latest run of a figure trajectory against the
// earliest compatible baseline run.
func gateFigures(runs []run, tol float64) []string {
	cand := runs[len(runs)-1]
	var msgs []string
	for name, rows := range cand.Figures {
		msgs = append(msgs, gateInternal(name, rows)...)
	}
	base, ok := baselineFor(runs, cand)
	if !ok {
		return msgs
	}
	for name, crows := range cand.Figures {
		brows, ok := base.Figures[name]
		if !ok {
			continue
		}
		msgs = append(msgs, compareFigure(name, brows, crows, tol)...)
	}
	return msgs
}

// baselineFor picks the earliest prior run comparable to cand (same
// scale, metric and shard setting — ratios across different workloads
// mean nothing).
func baselineFor(runs []run, cand run) (run, bool) {
	for _, r := range runs[:len(runs)-1] {
		if r.Scale == cand.Scale && r.Metric == cand.Metric && r.Shards == cand.Shards {
			return r, true
		}
	}
	return run{}, false
}

// gateInternal checks one run's own invariants: the net sweep's
// backend rows must agree on the matching (same Size; Cost equal to
// float round-trip noise) and hold the table and ch floors; the churn
// sweep's exact row must show no drift.
func gateInternal(name string, rows []expr.Row) []string {
	if name == "churn" {
		return gateChurn(rows)
	}
	if name != "net" {
		return nil
	}
	byLabel := map[string]expr.Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	ref, ok := byLabel["dijkstra"]
	if !ok {
		return nil
	}
	// dijkstra, ch and table are byte-identical by contract.
	var msgs []string
	for _, lbl := range []string{"ch", "table"} {
		if r, ok := byLabel[lbl]; ok && (r.Cost != ref.Cost || r.Size != ref.Size || r.Esub != ref.Esub) {
			msgs = append(msgs, fmt.Sprintf("net: %s diverged from dijkstra: cost %v vs %v, size %d vs %d, esub %d vs %d",
				lbl, r.Cost, ref.Cost, r.Size, ref.Size, r.Esub, ref.Esub))
		}
	}
	if tab, ok := byLabel["table"]; ok && tab.CPU > 0 {
		if speedup := float64(ref.CPU) / float64(tab.CPU); speedup < netFloorSpeedup {
			msgs = append(msgs, fmt.Sprintf("net: table cold-solve speedup %.2fx over dijkstra below the %.0fx floor", speedup, netFloorSpeedup))
		}
	}
	if ch, ok := byLabel["ch"]; ok && ref.QueryNS > 0 && ch.QueryNS > 0 {
		if speedup := float64(ref.QueryNS) / float64(ch.QueryNS); speedup < chQueryFloorSpeedup {
			msgs = append(msgs, fmt.Sprintf("net: ch cold point query %.2fx over dijkstra below the %.0fx floor (dijkstra %v, ch %v)",
				speedup, chQueryFloorSpeedup, ref.QueryNS, ch.QueryNS))
		}
	}
	return msgs
}

// gateChurn checks the churn sweep's internal invariant: Quality
// carries the exact row's worst observed drift vs the periodic full
// re-solve oracle, which must be 0 to float noise.
func gateChurn(rows []expr.Row) []string {
	for _, r := range rows {
		if r.Label != "exact" {
			continue
		}
		if r.Quality > 1e-9 {
			return []string{fmt.Sprintf("churn: exact row drifted %.3g from the oracle (must be 0)", r.Quality)}
		}
		return nil
	}
	return []string{"churn: no exact row"}
}

// compareFigure gates one figure's latest rows against the baseline's:
// deterministic fields exactly, normalized CPU within tol.
func compareFigure(name string, base, cand []expr.Row, tol float64) []string {
	key := func(r expr.Row) string { return r.Label + "/" + r.Algo }
	bm := map[string]expr.Row{}
	for _, r := range base {
		bm[key(r)] = r
	}
	var msgs []string
	for _, c := range cand {
		b, ok := bm[key(c)]
		if !ok {
			continue
		}
		if c.Size != b.Size {
			msgs = append(msgs, fmt.Sprintf("%s %s: size %d != baseline %d", name, key(c), c.Size, b.Size))
		}
		if relDiff(c.Cost, b.Cost) > 1e-9 {
			msgs = append(msgs, fmt.Sprintf("%s %s: cost %v drifted from baseline %v", name, key(c), c.Cost, b.Cost))
		}
		if c.Esub != b.Esub {
			msgs = append(msgs, fmt.Sprintf("%s %s: |Esub| %d != baseline %d", name, key(c), c.Esub, b.Esub))
		}
		if c.KeyUpd != b.KeyUpd {
			msgs = append(msgs, fmt.Sprintf("%s %s: key updates %d != baseline %d", name, key(c), c.KeyUpd, b.KeyUpd))
		}
		if c.Faults != b.Faults {
			msgs = append(msgs, fmt.Sprintf("%s %s: page faults %d != baseline %d", name, key(c), c.Faults, b.Faults))
		}
	}
	// Normalize by the figure's own first row so only shapes compare.
	bref, cref := refCPU(base), refCPU(cand)
	if bref <= 0 || cref <= 0 {
		return msgs
	}
	for _, c := range cand {
		b, ok := bm[key(c)]
		if !ok || b.CPU <= 0 || key(c) == key(base[0]) {
			continue
		}
		bn := float64(b.CPU) / bref
		cn := float64(c.CPU) / cref
		if cn > bn*(1+tol) {
			msgs = append(msgs, fmt.Sprintf("%s %s: normalized cpu %.3f regressed %.0f%% beyond baseline %.3f (tol %.0f%%, ref %v)",
				name, key(c), cn, 100*(cn/bn-1), bn, 100*tol, time.Duration(cref).Round(time.Millisecond)))
		}
	}
	return msgs
}

// refCPU is a figure's normalization anchor: its first row's CPU.
func refCPU(rows []expr.Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	return float64(rows[0].CPU)
}

// gateServe sanity-gates the serve trajectory's latest row: load runs
// must have completed every request. Latency percentiles are raw
// wall-clock on whatever machine ran them — there is no within-run
// anchor to normalize by, so they are recorded, not gated.
func gateServe(rows []serveRow) []string {
	last := rows[len(rows)-1]
	var msgs []string
	if last.Errors > 0 {
		msgs = append(msgs, fmt.Sprintf("serve: latest run has %d errors", last.Errors))
	}
	if last.OK < last.Requests {
		msgs = append(msgs, fmt.Sprintf("serve: latest run completed %d of %d requests", last.OK, last.Requests))
	}
	return msgs
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
