// Command ccarun solves one CCA instance from CSV files produced by
// ccagen (or any files in the same format) and reports the matching
// statistics.
//
//	ccarun -providers q.csv -customers p.csv -algo ida
//	ccarun -providers q.csv -customers p.csv -algo ca -delta 10 -out m.csv
//
// Algorithms are resolved by name through the solver registry; run with
// -algo help (or see the usage text) for the registered set. With -out,
// the matching is written as provider,customer,dist rows.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	cca "repro"
	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/expr"
	"repro/internal/geo/netmetric"
	"repro/internal/obs"
)

func main() {
	var (
		provPath = flag.String("providers", "", "providers CSV: x,y,capacity")
		custPath = flag.String("customers", "", "customers CSV: id,x,y")
		algo     = flag.String("algo", "ida", "solver name: "+strings.Join(cca.Solvers(), " | "))
		delta    = flag.Float64("delta", 0, "δ for the approximate solvers (0 = paper default)")
		theta    = flag.Float64("theta", 0.8, "θ for ria")
		metric   = flag.String("metric", "euclidean", `distance backend: "euclidean" or "network"
(network = shortest-path over the synthetic road network; use the same
-netgrid/-netseed the workload was generated with)`)
		netGrid = flag.Int("netgrid", 32, "road network grid size for -metric network (ccagen's -grid)")
		netSeed = flag.Int64("netseed", 2008, "road network seed for -metric network (ccagen's -seed)")
		ch      = flag.String("ch", "auto", `contraction-hierarchy point queries for -metric network:
"auto" (on at `+fmt.Sprint(netmetric.DefaultCHMinNodes)+`+ nodes), "off", or "on"`)
		distTable = flag.String("disttable", "auto", `provider-sourced distance table for -metric network (one
on-demand sweep per provider snap-edge endpoint, advanced only as far as the solve's queries):
"auto" (size-gated), "off", or a float64-cell memory budget (e.g. 16000000)`)
		timeout = flag.Duration("timeout", 0, `abort the solve after this long (e.g. 30s, 2m; 0 = no limit);
the solvers observe the deadline between augmenting iterations`)
		shards = flag.Int("shards", 0, `region count for the sharded meta-solver (-algo sharded[:base]):
0 = data-derived automatic count, 1 = no sharding`)
		shardBand = flag.Float64("shardband", 0, `boundary band width for -algo sharded[:base], in data-space
units (0 = 5% of the space diagonal); wider = closer to exact, slower`)
		outPath = flag.String("out", "", "write the matching CSV here")
		trace   = flag.Bool("trace", false, "print the solve's phase-span tree as JSON on stderr")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: %s [flags]\n\nregistered solvers:\n", os.Args[0])
		for _, line := range cca.DescribeSolvers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %s\n", line)
		}
		fmt.Fprintln(flag.CommandLine.Output(), "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *provPath == "" || *custPath == "" {
		fmt.Fprintln(os.Stderr, "ccarun: -providers and -customers are required")
		flag.Usage()
		os.Exit(2)
	}

	providers, err := dataio.ReadProvidersFile(*provPath)
	fatal(err)
	items, err := dataio.ReadCustomersFile(*custPath)
	fatal(err)
	customers, err := cca.IndexItems(items, cca.IndexConfig{})
	fatal(err)
	defer customers.Close()

	opts := cca.SolverOptions{Delta: *delta}
	opts.Core.Theta = *theta
	opts.Core.Shards = *shards
	opts.Core.ShardBoundary = *shardBand

	var netMetric *netmetric.NetworkMetric
	switch strings.ToLower(*metric) {
	case "", "euclidean":
	case netmetric.Name:
		// Rebuild the road network the workload was generated on (ccagen
		// uses the same grid/seed/space recipe) and measure edge costs as
		// shortest-path travel distances over it.
		netMetric = cca.RoadNetworkMetric(*netGrid, expr.Space, *netSeed).(*netmetric.NetworkMetric)
		chMode, err := netmetric.ParseCHMode(*ch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccarun: -ch %v\n", err)
			os.Exit(2)
		}
		netMetric.SetCH(chMode)
		opts.Core.Metric = netMetric
		if opts.Core.DistTable, err = core.ParseDistTable(*distTable); err != nil {
			fmt.Fprintf(os.Stderr, "ccarun: -disttable %v\n", err)
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "ccarun: unknown metric %q (available: euclidean, network)\n", *metric)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var root *obs.Span
	if *trace {
		root = obs.NewRoot("ccarun")
		ctx = obs.WithSpan(ctx, root)
	}
	start := time.Now()
	res, err := cca.SolveContext(ctx, *algo, providers, customers, &opts)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "ccarun: solve aborted after -timeout %v\n", *timeout)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "ccarun:", err)
		os.Exit(2)
	}
	elapsed := time.Since(start)

	io := customers.IOStats()
	fmt.Printf("algorithm      %s (%s)\n", strings.ToUpper(res.Solver), res.Kind)
	if netMetric != nil {
		st := netMetric.Stats()
		chState := "off"
		if netMetric.CH() {
			q, f := netMetric.CHStats()
			chState = fmt.Sprintf("on (%d queries, %d fallbacks)", q, f)
		}
		fmt.Printf("metric         network (%d nodes, %d edges; ch %s; node-cache hit rate %.1f%%)\n",
			netMetric.NumNodes(), netMetric.NumEdges(), chState, 100*st.NodeHitRate())
	} else {
		fmt.Printf("metric         euclidean\n")
	}
	fmt.Printf("providers      %d (total capacity %d)\n", len(providers), totalCap(providers))
	fmt.Printf("customers      %d\n", customers.Len())
	fmt.Printf("matching size  %d\n", res.Size)
	fmt.Printf("cost Ψ(M)      %.3f\n", res.Cost)
	if res.Kind == cca.SolverApproximate {
		fmt.Printf("error bound    ≤ %.3f above optimal\n", res.ErrorBound)
	}
	fmt.Printf("subgraph |Esub| %d of %d\n", res.Metrics.SubgraphEdges, res.Metrics.FullGraphEdges)
	if strings.HasPrefix(res.Solver, "sharded") && res.Groups > 0 {
		fmt.Printf("shards         %d (region phase %v, reconcile %v)\n",
			res.Groups, res.ConciseTime.Round(time.Millisecond), res.RefineTime.Round(time.Millisecond))
	}
	fmt.Printf("wall time      %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("page faults    %d (simulated I/O %v)\n", io.Faults, io.IOTime())

	if root != nil {
		root.End()
		tree, err := json.MarshalIndent(root.Tree(), "", "  ")
		fatal(err)
		fmt.Fprintf(os.Stderr, "%s\n", tree)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		fatal(err)
		fatal(dataio.WriteMatching(f, res.Pairs))
		fatal(f.Close())
		fmt.Printf("matching written to %s\n", *outPath)
	}
}

func totalCap(providers []cca.Provider) int {
	t := 0
	for _, p := range providers {
		t += p.Cap
	}
	return t
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccarun:", err)
		os.Exit(1)
	}
}
