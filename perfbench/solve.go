package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	cca "repro"
	"repro/client"
	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
	"repro/internal/rtree"
)

// solveSpec sizes one batch-solve workload. Both solve workloads share
// the dataset and the request stream; they differ in the metric.
type solveSpec struct {
	metric string  // "" (Euclidean) or "network"
	warm   int     // untimed requests before the timed pass
	rate   float64 // timed requests per --seconds (see opCount)
	reps   int     // setup and recovery repetitions (medians reported)
}

var (
	// euclidSpec: the paper's own setting; warm-up only has to touch the
	// code paths, since every request reads through a cold buffer clone.
	euclidSpec = solveSpec{warm: 8, rate: 6, reps: 21}
	// networkSpec: 32 warm-up requests fill the engine's 32-entry
	// distance-table memo, so the timed pass runs at steady memory.
	networkSpec = solveSpec{metric: "network", warm: 32, rate: 4, reps: 3}
)

// Sizes of the solve workloads.
const (
	solveCustomers = 20000 // named dataset, clustered (80% in 10 clusters)
	solveProviders = 16    // fresh seeded provider set per request
	solveCap       = 50    // per provider: γ = 16 × 50 = 800
	solveGrid      = 128   // network workloads: 128² = 16,384 nodes
	datasetName    = "ds"
)

// space is ccad's data space for road networks (and ccagen's).
var space = cca.Rect{Min: cca.Point{X: 0, Y: 0}, Max: cca.Point{X: 1000, Y: 1000}}

// solveInputs is one run's generated inputs.
type solveInputs struct {
	spec    solveSpec
	netSeed int64
	items   []rtree.Item
	byID    map[int64]geo.Point
	probe   []client.Provider // first request after every boot
	warm    [][]client.Provider
	timed   [][]client.Provider
	gamma   int
}

// fixedSeed seeds what a deployment holds fixed: the road network
// (ccad's default net_seed) and the named customer dataset. The run's
// --seed draws the request stream over them, so a seed changes the
// operations, not the map or the data they run against; per-seed
// spread then measures the system, not the luck of one cluster draw.
const fixedSeed = 2008

func genSolveInputs(cfg config, spec solveSpec) *solveInputs {
	in := &solveInputs{spec: spec, netSeed: fixedSeed}
	// Points lie on the road network in both workloads, so the Euclidean
	// and network runs solve the same dataset and the same requests.
	net := datagen.NewNetwork(solveGrid, space, in.netSeed)
	pts := net.Points(datagen.Config{N: solveCustomers, Dist: datagen.Clustered, Seed: fixedSeed})
	in.items = datagen.Items(pts)
	in.byID = make(map[int64]geo.Point, len(pts))
	for _, it := range in.items {
		in.byID[it.ID] = it.Pt
	}
	providers := func(stream string, i int) []client.Provider {
		seed := subSeed(cfg.seed, stream, i)
		if stream == "probe" {
			seed = fixedSeed
		}
		qs := net.Points(datagen.Config{N: solveProviders, Dist: datagen.Uniform, Seed: seed})
		out := make([]client.Provider, len(qs))
		for j, q := range qs {
			out[j] = client.Provider{X: q.X, Y: q.Y, Cap: solveCap}
		}
		return out
	}
	// The boot probe is fixed like the dataset, so setup and recovery
	// times do not vary with the cost of one seeded request.
	in.probe = providers("probe", 0)
	for i := 0; i < spec.warm; i++ {
		in.warm = append(in.warm, providers("warm", i))
	}
	for i := 0; i < opCount(spec.rate, cfg.seconds); i++ {
		in.timed = append(in.timed, providers("timed", i))
	}
	in.gamma = min(solveProviders*solveCap, solveCustomers)
	return in
}

// body marshals one single-instance solve request.
func (in *solveInputs) body(providers []client.Provider) []byte {
	inst := client.Instance{Solver: "ida", Dataset: datasetName, Providers: providers}
	if in.spec.metric == "network" {
		inst.Metric, inst.NetGrid, inst.NetSeed = "network", solveGrid, in.netSeed
	}
	b, err := json.Marshal(client.SolveRequest{Instances: []client.Instance{inst}})
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	return b
}

// solveOp is one answered solve request.
type solveOp struct {
	lat   time.Duration
	bytes int
	res   client.InstanceResult
	fleet client.Fleet
	trace *client.TraceSpan
}

// solve sends one request, validates the answer, and records the
// outcome in rep. ok is false for a failed or invalid operation.
func (in *solveInputs) solve(d *ccad, providers []client.Provider, traced bool, rep *report) (op solveOp, ok bool) {
	url := d.url + "/v1/solve"
	if traced {
		url += "?trace=1"
	}
	raw, lat, err := call("POST", url, in.body(providers))
	op.lat, op.bytes = lat, len(raw)
	if err == nil {
		var resp client.SolveResponse
		if err = json.Unmarshal(raw, &resp); err == nil {
			if len(resp.Results) != 1 {
				err = fmt.Errorf("solve: %d results, want 1", len(resp.Results))
			} else {
				op.res, op.fleet, op.trace = resp.Results[0], resp.Fleet, resp.Trace
				err = in.validate(providers, op.res)
			}
		}
	}
	return op, rep.check(err)
}

// validate checks one solve answer: the matching is maximum (size γ),
// no provider exceeds its capacity, no customer appears twice, every
// customer is a dataset point at its true coordinates, the cost is the
// sum of the pair distances bit for bit, and (Euclidean) every pair
// distance is the exact point distance.
func (in *solveInputs) validate(providers []client.Provider, r client.InstanceResult) error {
	if r.Error != "" {
		return fmt.Errorf("solve: %s", r.Error)
	}
	if r.Size != in.gamma || len(r.Pairs) != in.gamma {
		return fmt.Errorf("solve: size %d (%d pairs), want γ = %d", r.Size, len(r.Pairs), in.gamma)
	}
	load := make([]int, len(providers))
	seen := make(map[int64]bool, len(r.Pairs))
	cost := 0.0
	for _, p := range r.Pairs {
		if p.Provider < 0 || p.Provider >= len(providers) {
			return fmt.Errorf("solve: pair provider %d out of range", p.Provider)
		}
		if load[p.Provider]++; load[p.Provider] > providers[p.Provider].Cap {
			return fmt.Errorf("solve: provider %d over capacity %d", p.Provider, providers[p.Provider].Cap)
		}
		if seen[p.Customer] {
			return fmt.Errorf("solve: customer %d assigned twice", p.Customer)
		}
		seen[p.Customer] = true
		pt, ok := in.byID[p.Customer]
		if !ok || pt.X != p.X || pt.Y != p.Y {
			return fmt.Errorf("solve: customer %d not in the dataset at (%v, %v)", p.Customer, p.X, p.Y)
		}
		if in.spec.metric == "" {
			q := geo.Point{X: providers[p.Provider].X, Y: providers[p.Provider].Y}
			if d := q.Dist(pt); d != p.Dist {
				return fmt.Errorf("solve: pair (%d, %d) dist %v, want %v", p.Provider, p.Customer, p.Dist, d)
			}
		}
		cost += p.Dist
	}
	if cost != r.Cost {
		return fmt.Errorf("solve: cost %v != Σ pair dist %v", r.Cost, cost)
	}
	return nil
}

// pass runs a list of requests in order (one client, closed loop),
// recording their latencies in m when m is not nil.
func (in *solveInputs) pass(d *ccad, reqs [][]client.Provider, traced bool, m *meter, rep *report) []solveOp {
	out := make([]solveOp, len(reqs))
	for i, q := range reqs {
		out[i], _ = in.solve(d, q, traced, rep)
		if m != nil {
			m.add(out[i].lat)
		}
	}
	return out
}

// bootFirst boots a ccad on stateDir and times server.New → first
// successful response (the boot probe).
func (in *solveInputs) bootFirst(dataDir, stateDir string, rep *report) (*ccad, solveOp, float64, error) {
	d, t0, err := boot(dataDir, stateDir)
	if err != nil {
		return nil, solveOp{}, 0, err
	}
	op, ok := in.solve(d, in.probe, false, rep)
	if !ok {
		d.stop(true)
		return nil, op, 0, fmt.Errorf("first request failed")
	}
	return d, op, since(t0), nil
}

func runSolve(cfg config, spec solveSpec, rep *report) error {
	in := genSolveInputs(cfg, spec)
	dataDir := filepath.Join(cfg.dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dataDir, datasetName+".csv"))
	if err != nil {
		return err
	}
	if err := dataio.WriteCustomers(f, in.items); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// The server sees the dataset as parsed from the CSV (whose decimal
	// form rounds the generated coordinates): check against that.
	if in.items, err = dataio.ReadCustomersFile(f.Name()); err != nil {
		return err
	}
	for _, it := range in.items {
		in.byID[it.ID] = it.Pt
	}
	if cfg.trace {
		return in.layers(cfg, dataDir, rep)
	}
	return in.endToEnd(cfg, dataDir, rep)
}

// endToEnd is the untraced run: setup, warm-up, the timed pass, then
// restarts on the abandoned state dir and extra fresh setups for the
// setup/recovery medians, then the in-process cross-check.
func (in *solveInputs) endToEnd(cfg config, dataDir string, rep *report) error {
	state := filepath.Join(cfg.dir, "state")
	d, first, setup, err := in.bootFirst(dataDir, state, rep)
	if err != nil {
		return err
	}
	setups := []float64{setup}
	in.pass(d, in.warm, false, nil, rep)

	quiesce()
	m := newMeter(len(in.timed))
	ops := in.pass(d, in.timed, false, m, rep)
	rss := peakRSSMB()
	d.stop(false)

	// Restarts and extra fresh setups alternate, so both medians sample
	// the same stretch of the run.
	var recoveries []float64
	for r := 0; r < in.spec.reps; r++ {
		d, op, t, err := in.bootFirst(dataDir, state, rep)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		recoveries = append(recoveries, t)
		rep.check(sameResult("restart probe", first.res, op.res))
		d.stop(false)
		if r == 0 {
			continue
		}
		fresh := filepath.Join(cfg.dir, fmt.Sprintf("state-%d", r))
		d, op, t, err = in.bootFirst(dataDir, fresh, rep)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, t)
		rep.check(sameResult("fresh probe", first.res, op.res))
		d.stop(true)
		os.RemoveAll(fresh)
	}
	if _, err := in.inProcess(ops, rep); err != nil {
		return err
	}

	m.report(rep)
	rep.set("setup_s", median(setups), len(setups))
	rep.set("rss_mb", rss, 1)
	rep.set("recovery_s", median(recoveries), len(recoveries))
	return nil
}

// sameResult compares two answers to the same request bit for bit.
func sameResult(what string, a, b client.InstanceResult) error {
	if a.Size != b.Size || math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || len(a.Pairs) != len(b.Pairs) {
		return fmt.Errorf("%s: size/cost %d/%v vs %d/%v", what, a.Size, a.Cost, b.Size, b.Cost)
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return fmt.Errorf("%s: pair %d differs", what, i)
		}
	}
	return nil
}

// netMetric builds the benchmark's own replica of a network metric with
// ccad's default configuration (default landmarks, hierarchy on from
// DefaultCHMinNodes nodes).
func netMetric(grid int, seed int64) *netmetric.NetworkMetric {
	m := cca.RoadNetworkMetric(grid, space, seed).(*netmetric.NetworkMetric)
	m.SetLandmarks(netmetric.DefaultLandmarks)
	if grid*grid >= netmetric.DefaultCHMinNodes {
		m.SetCH(1)
	} else {
		m.SetCH(0)
	}
	return m
}

// inProcess solves the first and last timed requests with an in-process
// cca.Solve on the same inputs and checks the server's answers against
// them bit for bit (cost, pairs, page faults). It returns the in-process
// solver counters of both solves.
func (in *solveInputs) inProcess(ops []solveOp, rep *report) ([]cca.Metrics, error) {
	customers, err := cca.IndexItems(in.items, cca.IndexConfig{})
	if err != nil {
		return nil, err
	}
	defer customers.Close()
	opts := &cca.SolverOptions{}
	var m *netmetric.NetworkMetric
	if in.spec.metric == "network" {
		m = netMetric(solveGrid, in.netSeed)
		opts.Core.Metric = m
	}
	var out []cca.Metrics
	for _, i := range []int{0, len(ops) - 1} {
		q := make([]cca.Provider, len(in.timed[i]))
		for j, p := range in.timed[i] {
			q[j] = cca.Provider{Pt: cca.Point{X: p.X, Y: p.Y}, Cap: p.Cap}
		}
		h, err := customers.Clone()
		if err != nil {
			return nil, err
		}
		res, err := cca.Solve("ida", q, h, opts)
		h.Close()
		if err != nil {
			rep.check(fmt.Errorf("in-process solve %d: %w", i, err))
			continue
		}
		want := client.InstanceResult{Size: res.Size, Cost: res.Cost}
		for _, p := range res.Pairs {
			want.Pairs = append(want.Pairs, client.Pair{Provider: p.Provider, Customer: p.CustomerID, X: p.CustomerPt.X, Y: p.CustomerPt.Y, Dist: p.Dist})
		}
		err = sameResult(fmt.Sprintf("timed request %d vs in-process cca.Solve", i), ops[i].res, want)
		if err == nil && ops[i].fleet.Faults != res.Metrics.IO.Faults {
			err = fmt.Errorf("timed request %d: %d page faults, in-process %d", i, ops[i].fleet.Faults, res.Metrics.IO.Faults)
		}
		rep.check(err)
		out = append(out, res.Metrics)
	}
	if m != nil {
		_, fb := m.CHStats()
		rep.set("netmetric.ch_fallbacks", float64(fb), len(out))
	} else {
		rep.set("netmetric.ch_fallbacks", 0, len(out))
	}
	return out, nil
}
