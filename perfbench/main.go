// Command perfbench is the repository benchmark: it drives an
// in-process ccad (server.New behind a loopback listener) with one
// closed-loop client over a fixed, seeded sequence of operations,
// checks every answer, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) of one workload. See README.md in
// this directory for the workloads, the noise controls and the metric
// definitions.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload solve-euclid --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable report with units and sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's parsed flags plus its scratch directory.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // per-run scratch directory inside the checkout
	fs       string // filesystem type of dir (where the state dir lives)
}

// metric is one reported number with its sample count.
type metric struct {
	value float64
	n     int // samples behind the value (0: the workload bypasses the layer)
}

// report collects one run's metrics and its operation accounting.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string // first few failure messages, for stderr
	notes     []string // extra human-readable lines
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, value float64, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.fail("metric %s is %v", name, value)
		value = 0
	}
	r.metrics[name] = metric{value: value, n: n}
}

// fail records a failed or invalid operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check records one attempted operation and whether it succeeded.
func (r *report) check(err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
		return false
	}
	return true
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, rep *report) error{
	"solve-euclid":  func(cfg config, rep *report) error { return runSolve(cfg, euclidSpec, rep) },
	"solve-network": func(cfg config, rep *report) error { return runSolve(cfg, networkSpec, rep) },
	"session-churn": runChurn,
}

// metricDef names one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer list the metrics each mode reports, in
// BENCHMARK.json order and with its units.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"p50_ms", "ms"}, {"ops_per_s", "1/s"},
		{"cpu_ms_per_op", "ms"}, {"rss_mb", "MB"}, {"recovery_s", "s"},
	}
	perLayer = []metricDef{
		{"server.overhead_ms", "ms"}, {"server.resp_kb_per_op", "KiB"},
		{"sched.queue_wait_ms", "ms"}, {"engine.result_cache_hit_ratio", "ratio"},
		{"engine.table_memo_hit_ratio", "ratio"}, {"engine.table_memo_mb", "MB"},
		{"flowgraph.build_ms", "ms"}, {"core.augment_ms", "ms"}, {"core.augment_iterations", "count"},
		{"core.esub_edges", "count"}, {"core.key_updates", "count"}, {"rtree.nn_retrievals", "count"},
		{"storage.faults_per_solve", "count"}, {"storage.buffer_hit_ratio", "ratio"},
		{"netmetric.table_build_ms", "ms"}, {"netmetric.query_ms", "ms"}, {"netmetric.query_calls", "count"},
		{"netmetric.ch_build_s", "s"}, {"netmetric.point_query_us", "us"},
		{"netmetric.pair_hit_ratio", "ratio"}, {"netmetric.node_hit_ratio", "ratio"},
		{"netmetric.snap_hit_ratio", "ratio"}, {"netmetric.ch_fallbacks", "count"},
		{"dynamic.arrive_us", "us"}, {"dynamic.depart_us", "us"}, {"dynamic.resize_us", "us"},
		{"dynamic.augments", "count"}, {"dynamic.cycle_cancels", "count"},
		{"wal.append_us", "us"}, {"wal.bytes_per_event", "B"}, {"wal.fsyncs_per_event", "count"},
		{"recovery.ms_per_event", "ms"}, {"obs.trace_overhead_pct", "%"}, {"trace.attributed_pct", "%"},
	}
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed replays the same operations")
	flag.IntVar(&cfg.seconds, "seconds", 25, "run length; scales the fixed operation count (see README.md)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	root, err := os.Getwd()
	if err == nil {
		base := filepath.Join(root, ".bench_build", "perfbench")
		if err = os.MkdirAll(base, 0o755); err == nil {
			cfg.dir, err = os.MkdirTemp(base, "run-*")
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		os.Exit(2)
	}
	cfg.fs = fsType(cfg.dir)
	rep := newReport()
	runErr := run(cfg, rep)
	if err := os.RemoveAll(cfg.dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cleanup: %v\n", err)
	}
	if runErr != nil {
		// A run that could not complete prints no result.
		for _, f := range rep.failures {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, runErr)
		os.Exit(1)
	}
	if rep.attempted == 0 {
		rep.attempted = 1
		rep.fail("no operation ran")
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := rep.metrics[d.name]; ok {
			continue
		}
		if cfg.trace {
			rep.set(d.name, 0, 0) // a layer this workload bypasses
		} else {
			rep.fail("metric %s not measured", d.name)
		}
	}
	printReport(cfg, rep, defs)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// printReport writes the human-readable report, then the result JSON
// as the last line of standard output.
func printReport(cfg config, rep *report, defs []metricDef) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d: %s metrics\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Printf("  env: nproc=%d GOMAXPROCS=%d %s %s/%s state-dir-fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cfg.fs)
	errRate := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Printf("  %-32s %14.6f %-6s (n=%d)\n", "error_rate", errRate, "ratio", rep.attempted)
	for _, d := range defs {
		if m, ok := rep.metrics[d.name]; ok {
			fmt.Printf("  %-32s %14.6f %-6s (n=%d)\n", d.name, m.value, d.unit, m.n)
		}
	}
	for _, l := range rep.notes {
		fmt.Printf("  %s\n", l)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", f)
	}

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]jm)}
	for _, d := range defs {
		if m, ok := rep.metrics[d.name]; ok {
			out.Metrics[d.name] = jm{Value: m.value, Unit: d.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // set stores only finite floats
	}
	fmt.Println(string(b))
}

// fsType names the filesystem holding dir (the state dir's parent), so
// every report records whether fsync hit a device or memory.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// subSeed derives an independent seed for one input stream of the run
// (customers, provider sets, events) from the run's seed.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64() >> 1)
}

// opCount is the fixed number of timed operations for a run: a
// workload's nominal rate times --seconds, never a wall-clock cutoff,
// so every run with the same flags replays exactly the same sequence.
func opCount(rate float64, seconds int) int {
	return int(rate*float64(seconds) + 0.5)
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
