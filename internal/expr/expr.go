// Package expr is the experiment harness: it regenerates every figure of
// the paper's evaluation (§5, Figures 8–18) as printed tables with the
// same series the paper plots — subgraph size |Esub|, CPU time, simulated
// I/O time (10 ms per page fault), and, for the approximate methods,
// assignment quality Ψ(M)/Ψ(M_CCA).
//
// Absolute numbers differ from the paper's 2008 C++/Pentium-D testbed;
// the harness exists to reproduce the *shapes*: who wins, by what factor,
// and where behaviour changes (e.g. the k·|Q| vs |P| crossover).
//
// Every figure accepts a scale factor that proportionally shrinks |Q| and
// |P| (capacities are kept, preserving the k·|Q|/|P| ratios that drive
// the trends), so the full sweep finishes on a laptop; scale=1 reproduces
// the paper's cardinalities.
package expr

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
	"repro/internal/rtree"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/storage"
)

// Space is the normalized data space of §5.1.
var Space = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

// Config is one harness configuration: the distance backend every
// workload is built for, the network-metric tuning, the options
// threaded into every sweep, the solvers the exact figures compare and
// the scheduler the figure points run on. Figures only read it, so
// several configurations can sweep concurrently in one process.
// NewConfig returns the defaults.
type Config struct {
	// Metric names the distance backend every Build attaches to its
	// workload: "euclidean" (the paper's setting) or "network"
	// (shortest-path distance over the same road network the points are
	// generated on). Case-insensitive; see ParseMetric.
	Metric string
	// CH is the contraction-hierarchy mode of network workloads, in
	// NetworkMetric.SetCH's encoding: -1 = automatic by network size,
	// 0 = off, 1 = on. Purely a performance knob — distances are
	// byte-identical either way.
	CH int
	// DistTable is threaded into every sweep's core.Options.DistTable
	// (0 auto, -1 off, positive = budget in float64 cells).
	DistTable int
	// Shards is the region count threaded into every sweep's options
	// (0 = the shard layer's data-derived automatic count). It only
	// matters for sharded:* solvers named in ExactAlgos.
	Shards int
	// ExactAlgos are the registry solver names Figures 9–13 compare.
	ExactAlgos []string
	// Pool runs the figure points (see runPoints). Nil gives each
	// figure a one-worker pool of its own: the sequential sweep, with
	// CPU timings that parallel points would perturb.
	Pool *sched.Pool
}

// NewConfig returns the default configuration: the Euclidean metric,
// automatic hierarchy, table and shard count, RIA/NIA/IDA
// in the exact figures, and one worker.
func NewConfig() Config {
	return Config{
		Metric:     geo.Euclidean.Name(),
		CH:         -1,
		ExactAlgos: []string{"RIA", "NIA", "IDA"},
	}
}

// ParseMetric returns the canonical name of a distance backend
// ("euclidean" or "network"), matched case-insensitively; empty
// selects Euclidean.
func ParseMetric(name string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", geo.Euclidean.Name():
		return geo.Euclidean.Name(), nil
	case netmetric.Name:
		return netmetric.Name, nil
	}
	return "", fmt.Errorf("expr: unknown metric %q (available: %s, %s)",
		name, geo.Euclidean.Name(), netmetric.Name)
}

// Params describes one experiment configuration (Table 2 plus
// distribution selectors and a seed).
type Params struct {
	NQ    int // |Q|
	NP    int // |P|
	K     int // capacity (used when KLo==KHi==0)
	KLo   int // mixed capacities: lower bound (Fig 12)
	KHi   int // mixed capacities: upper bound
	DistQ datagen.Distribution
	DistP datagen.Distribution
	Theta float64 // RIA θ
	Seed  int64
}

// Default returns the paper's default setting (Table 2) scaled by s:
// |Q| = 1000·s, |P| = 100000·s, k = 80. The paper fine-tunes RIA's θ to
// 0.8 "for fairness" at its density; density scales with s, so
// nearest-neighbor distances (and the appropriate θ) scale with 1/√s.
// The constant is re-tuned for this harness's workloads with the
// ThetaSensitivity sweep (total time is minimized near θ ≈ 8/√s; see
// EXPERIMENTS.md).
func Default(s float64) Params {
	return Params{
		NQ:    max(1, int(1000*s)),
		NP:    max(2, int(100000*s)),
		K:     80,
		DistQ: datagen.Clustered,
		DistP: datagen.Clustered,
		Theta: 8 / math.Sqrt(s),
		Seed:  2008,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Workload is a generated problem instance.
type Workload struct {
	Providers []core.Provider
	Tree      *rtree.Tree
	Buffer    *storage.Buffer
	Items     []rtree.Item
	// Metric is the distance backend the workload was built for; nil
	// means Euclidean. The shortest-path metric shares the road network
	// the points were placed on, so network distances are meaningful
	// travel distances, not detours to an unrelated graph.
	Metric geo.Metric
}

// Dataset adapts the workload for registry solvers. The items are
// served from memory, so the main-memory baselines (SSPA, Hungarian)
// incur no tree I/O — matching how the paper charges them.
func (w *Workload) Dataset() solver.Dataset {
	return solver.FromTreeItems(w.Tree, w.Items)
}

// Build generates a workload: points on a synthetic road network
// (§5.1's recipe), customers bulk-loaded into a 1 KB-page R-tree with a
// 1% LRU buffer, measured with the configured metric.
func (c Config) Build(p Params) (*Workload, error) {
	return c.BuildOnGrid(p, 32)
}

// BuildOnGrid is Build with an explicit road-network grid size. The
// figure sweeps all use the default 32 (1K nodes); the net-backend
// sweep uses a finer grid, where shortest-path cost actually matters.
func (c Config) BuildOnGrid(p Params, grid int) (*Workload, error) {
	name, err := ParseMetric(c.Metric)
	if err != nil {
		return nil, err
	}
	net := datagen.NewNetwork(grid, Space, p.Seed)
	var metric geo.Metric
	if name == netmetric.Name {
		m := netmetric.FromNetwork(net)
		m.SetCH(c.CH)
		metric = m
	}
	qpts := net.Points(datagen.Config{N: p.NQ, Dist: p.DistQ, Seed: p.Seed + 1})
	ppts := net.Points(datagen.Config{N: p.NP, Dist: p.DistP, Seed: p.Seed + 2})

	caps := datagen.Capacities(p.NQ, p.kLo(), p.kHi(), p.Seed+3)
	providers := make([]core.Provider, p.NQ)
	for i := range providers {
		providers[i] = core.Provider{Pt: qpts[i], Cap: caps[i]}
	}
	items := datagen.Items(ppts)

	store := storage.NewMemStore(storage.DefaultPageSize)
	loadBuf := storage.NewBuffer(store, 1<<20)
	tree, err := rtree.Bulk(loadBuf, items)
	if err != nil {
		return nil, err
	}
	// Query through the experiment buffer: 1% of the tree (min 4 pages).
	frames := store.NumPages() / 100
	if frames < 4 {
		frames = 4
	}
	buf := storage.NewBuffer(store, frames)
	if err := tree.Flush(); err != nil {
		return nil, err
	}
	queryTree, err := rtree.Open(buf)
	if err != nil {
		return nil, err
	}
	return &Workload{Providers: providers, Tree: queryTree, Buffer: buf, Items: items, Metric: metric}, nil
}

func (p Params) kLo() int {
	if p.KLo > 0 {
		return p.KLo
	}
	return p.K
}

func (p Params) kHi() int {
	if p.KHi > 0 {
		return p.KHi
	}
	return p.K
}

// Row is one measurement: an (experiment point, algorithm) pair.
type Row struct {
	Label    string // x-axis value, e.g. "k=80" or "UvsC"
	Algo     string
	Esub     int
	Full     int
	CPU      time.Duration
	IO       time.Duration
	Faults   int
	Cost     float64
	Quality  float64 // Ψ/Ψopt for approximate methods (0 when unset)
	Size     int
	KeyUpd   int // IDA key updates
	Augments int // augmenting iterations run (successful augmentations)
	// QueryNS is the mean cold point-query latency of the row's distance
	// backend, measured on a fresh metric separate from the solve (net
	// sweep only; 0 elsewhere and in pre-measurement baselines).
	QueryNS time.Duration
}

// runExact executes one algorithm cold (cache dropped, stats reset) by
// registry name and converts the result into a Row.
func runExact(algo string, w *Workload, opts core.Options) (Row, error) {
	s, err := solver.Get(algo)
	if err != nil {
		return Row{}, fmt.Errorf("expr: %w", err)
	}
	if w.Metric != nil {
		opts.Metric = w.Metric
	}
	w.Buffer.DropCache()
	w.Buffer.ResetStats()
	res, err := s.Solve(context.Background(), w.Providers, w.Dataset(), solver.Options{Core: opts})
	if err != nil {
		return Row{}, fmt.Errorf("expr: %s: %w", algo, err)
	}
	return Row{
		Algo:     algo,
		Esub:     res.Metrics.SubgraphEdges,
		Full:     res.Metrics.FullGraphEdges,
		CPU:      res.Metrics.CPUTime,
		IO:       res.Metrics.IOTime,
		Faults:   res.Metrics.IO.Faults,
		Cost:     res.Cost,
		Size:     res.Size,
		KeyUpd:   res.Metrics.KeyUpdates,
		Augments: res.Metrics.Augments,
	}, nil
}

// PrintRows renders rows as an aligned table.
func PrintRows(out io.Writer, title string, rows []Row, withQuality bool) {
	fmt.Fprintf(out, "\n%s\n", title)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	if withQuality {
		fmt.Fprintln(tw, "point\talgo\tquality\tcpu\tio\ttotal\tcost")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%v\t%v\t%v\t%.1f\n",
				r.Label, r.Algo, r.Quality, r.CPU.Round(time.Millisecond),
				r.IO.Round(time.Millisecond), (r.CPU + r.IO).Round(time.Millisecond), r.Cost)
		}
	} else {
		fmt.Fprintln(tw, "point\talgo\t|Esub|\t|FULL|\tcpu\tio\ttotal\tfaults\tcost")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%v\t%v\t%v\t%d\t%.1f\n",
				r.Label, r.Algo, r.Esub, r.Full, r.CPU.Round(time.Millisecond),
				r.IO.Round(time.Millisecond), (r.CPU + r.IO).Round(time.Millisecond),
				r.Faults, r.Cost)
		}
	}
	tw.Flush()
}
