// Command ccabench regenerates the tables behind every figure of the
// paper's evaluation (§5, Figures 8–18) plus the ablation studies.
//
// Usage:
//
//	ccabench -fig 9 -scale 0.1        # one figure
//	ccabench -fig all -scale 0.05     # the whole evaluation
//	ccabench -fig ablation            # optimization ablations
//
// scale proportionally shrinks |Q| and |P| (1.0 = the paper's
// cardinalities: |Q|=1K, |P|=100K). Capacities are unscaled, preserving
// the k·|Q| vs |P| ratios that drive every trend in the paper.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/geo/netmetric"
	"repro/internal/sched"
	"repro/internal/solver"
)

func main() {
	fig := flag.String("fig", "all", `figure to regenerate: 8..18, "ablation", "theta", "baselines", "shard", "net", "churn", or "all"`)
	scale := flag.Float64("scale", 0.05, "cardinality scale factor (1.0 = paper size)")
	algos := flag.String("algos", "", "comma-separated solver names swept by the exact figures\n(default "+
		strings.Join(expr.NewConfig().ExactAlgos, ",")+"; registered: "+strings.Join(solver.Names(), ",")+")")
	metric := flag.String("metric", "euclidean", `distance backend: "euclidean" (the paper's setting) or
"network" (shortest-path distance on the generated road network)`)
	stream := flag.Int("stream", 1, `scheduler workers for the figure sweeps: 1 (default) runs
points sequentially with clean CPU timings; higher values stream
independent figure points through the shared scheduler concurrently
(faster wall clock, noisier per-point CPU numbers); 0 selects GOMAXPROCS`)
	shards := flag.Int("shards", 0, `region count threaded into every sweep for sharded:* solvers
(0 = the shard layer's automatic count); pick solvers with -algos,
e.g. -algos ida,sharded:ida -shards 8`)
	table := flag.String("table", "auto", `provider-sourced distance table (on-demand sweeps) threaded into
every sweep's options: "auto" (size-gated), "off", or a float64-cell memory budget`)
	ch := flag.String("ch", "auto", `contraction-hierarchy point queries for -metric network
workloads: "auto" (on at `+fmt.Sprint(netmetric.DefaultCHMinNodes)+`+ nodes), "off", or "on"`)
	jsonOut := flag.String("json", "", `append the run's rows to this JSON trajectory file
(e.g. BENCH_shard.json for -fig shard, BENCH_net.json for -fig net,
BENCH_serve.json with -serve); each run appends one document, so the
file accumulates a cross-commit trajectory benchgate can diff`)
	serve := flag.Bool("serve", false, `serving load mode: boot an in-process ccad server and drive it
with concurrent HTTP clients mixing batch solves and session
arrivals; reports latency percentiles and throughput instead of
figure tables (-fig is ignored)`)
	clients := flag.Int("clients", 8, "-serve: concurrent load clients")
	requests := flag.Int("requests", 48, "-serve: total solve requests across all clients")
	inflight := flag.Int("inflight", 4, "-serve: server admission bound (MaxInFlight); load beyond it is shed with 429 and retried")
	flag.Parse()

	if *serve {
		if err := runServe(*scale, *clients, *requests, *inflight, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "ccabench: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := expr.NewConfig()
	cfg.Shards = *shards
	var err error
	if cfg.Metric, err = expr.ParseMetric(*metric); err != nil {
		fmt.Fprintf(os.Stderr, "ccabench: %v\n", err)
		os.Exit(2)
	}
	if cfg.DistTable, err = core.ParseDistTable(*table); err != nil {
		fmt.Fprintf(os.Stderr, "ccabench: -table %v\n", err)
		os.Exit(2)
	}
	if cfg.CH, err = netmetric.ParseCHMode(*ch); err != nil {
		fmt.Fprintf(os.Stderr, "ccabench: -ch %v\n", err)
		os.Exit(2)
	}
	if *algos != "" {
		names := strings.Split(*algos, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
			if _, err := solver.Get(names[i]); err != nil {
				fmt.Fprintf(os.Stderr, "ccabench: %v\n", err)
				os.Exit(2)
			}
		}
		cfg.ExactAlgos = names
	}
	if *stream == 0 {
		*stream = runtime.GOMAXPROCS(0)
	}
	if *stream > 1 {
		cfg.Pool = sched.New(sched.Config{Workers: *stream})
		defer cfg.Pool.Close()
	}

	trajectory := map[string][]expr.Row{}
	wrap := func(name string, f func(float64, io.Writer) ([]expr.Row, error)) func(float64) error {
		return func(s float64) error {
			rows, err := f(s, os.Stdout)
			if err == nil && *jsonOut != "" {
				trajectory[name] = rows
			}
			return err
		}
	}
	runners := map[string]func(float64) error{
		"8":         wrap("8", cfg.Fig8),
		"9":         wrap("9", cfg.Fig9),
		"10":        wrap("10", cfg.Fig10),
		"11":        wrap("11", cfg.Fig11),
		"12":        wrap("12", cfg.Fig12),
		"13":        wrap("13", cfg.Fig13),
		"14":        wrap("14", cfg.Fig14),
		"15":        wrap("15", cfg.Fig15),
		"16":        wrap("16", cfg.Fig16),
		"17":        wrap("17", cfg.Fig17),
		"18":        wrap("18", cfg.Fig18),
		"ablation":  wrap("ablation", cfg.Ablation),
		"theta":     wrap("theta", cfg.ThetaSensitivity),
		"baselines": wrap("baselines", cfg.BaselineScaling),
		"shard":     wrap("shard", cfg.ShardScaling),
		"net":       wrap("net", cfg.NetBackends),
		"churn":     wrap("churn", expr.ChurnDrift),
	}
	order := []string{"8", "9", "10", "11", "12", "13", "14", "15", "16", "17", "18", "ablation", "theta", "baselines", "shard", "net", "churn"}

	var selected []string
	if *fig == "all" {
		selected = order
	} else if _, ok := runners[*fig]; ok {
		selected = []string{*fig}
	} else {
		fmt.Fprintf(os.Stderr, "ccabench: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}

	for _, f := range selected {
		start := time.Now()
		if err := runners[f](*scale); err != nil {
			fmt.Fprintf(os.Stderr, "ccabench: figure %s: %v\n", f, err)
			os.Exit(1)
		}
		fmt.Printf("[figure %s done in %v]\n", f, time.Since(start).Round(time.Millisecond))
	}

	if cfg.Pool != nil {
		m := cfg.Pool.Metrics()
		fmt.Printf("\nscheduler: %d workers, %d points, Σ queue wait %v (max %v)\n",
			m.Workers, m.Completed, m.QueueWait.Round(time.Millisecond), m.MaxQueueWait.Round(time.Millisecond))
		for i, w := range m.PerWorker {
			fmt.Printf("  worker %d: %d points, busy %v (%.0f%% of uptime)\n",
				i, w.Tasks, w.Busy.Round(time.Millisecond), 100*w.Utilization)
		}
	}

	if *jsonOut != "" {
		if err := writeTrajectory(*jsonOut, *scale, cfg, trajectory); err != nil {
			fmt.Fprintf(os.Stderr, "ccabench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrajectory written to %s\n", *jsonOut)
	}
}

// trajectoryRun is one ccabench run's measurements — one element of a
// trajectory file (BENCH_shard.json, BENCH_net.json), which is a JSON
// array accumulating one document per run so downstream tooling
// (cmd/benchgate) can diff runs across commits.
type trajectoryRun struct {
	Unix    int64                 `json:"unix"`
	Scale   float64               `json:"scale"`
	Metric  string                `json:"metric"`
	Shards  int                   `json:"shards"`
	Workers int                   `json:"workers"`
	Figures map[string][]expr.Row `json:"figures"`
}

// writeTrajectory appends a run to the trajectory file. A pre-existing
// file holding a single run object (the format before trajectories
// appended) is absorbed as the array's first element rather than
// overwritten, so old baselines keep their history.
func writeTrajectory(path string, scale float64, cfg expr.Config, figures map[string][]expr.Row) error {
	doc := trajectoryRun{
		Unix:    time.Now().Unix(),
		Scale:   scale,
		Metric:  cfg.Metric,
		Shards:  cfg.Shards,
		Workers: runtime.GOMAXPROCS(0),
		Figures: figures,
	}
	var runs []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if json.Unmarshal(data, &runs) != nil {
			runs = nil
			var legacy trajectoryRun
			if json.Unmarshal(data, &legacy) == nil && legacy.Figures != nil {
				if raw, err := json.Marshal(legacy); err == nil {
					runs = []json.RawMessage{raw}
				}
			}
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	runs = append(runs, raw)
	data, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
