package cca

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
)

// networkBatch builds a batch whose every instance shares ONE
// NetworkMetric — the deployment shape the metric's concurrent caches
// exist for: engine workers race on the snap and node-pair maps while
// solving independent scenarios. Run under -race (the CI test job does)
// this is the engine/metric thread-safety test the issue calls for.
func networkBatch(t testing.TB, instances int) ([]Instance, *Customers, *netmetric.NetworkMetric) {
	t.Helper()
	space := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}
	net := datagen.NewNetwork(16, space, 2008)
	metric := netmetric.FromNetwork(net)

	cpts := net.Points(datagen.Config{N: 500, Dist: datagen.Clustered, Seed: 5})
	customers, err := IndexCustomers(cpts)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Instance, instances)
	for i := range batch {
		qpts := net.Points(datagen.Config{N: 3 + i%3, Dist: datagen.Uniform, Seed: int64(100 + i)})
		caps := datagen.Capacities(len(qpts), 2, 8, int64(i))
		providers := make([]Provider, len(qpts))
		for q := range providers {
			providers[q] = Provider{Pt: qpts[q], Cap: caps[q]}
		}
		in := Instance{
			Label:     fmt.Sprintf("net-%d", i),
			Providers: providers,
			Customers: customers,
			Solver:    []string{"ida", "nia", "ria", "greedy"}[i%4],
		}
		in.Options.Core.Metric = metric
		batch[i] = in
	}
	return batch, customers, metric
}

// TestEngineSharedTableMemo: a batch repeating one provider set across
// solvers, each instance large enough for the registry's per-solve
// distance table, must be byte-identical through the engine to the
// point-query path — except for page I/O: the incremental solvers
// (ida, nia, greedy) stream network nearest neighbours from the
// table's rows instead of the R-tree, so they read no page at all,
// while ria and sspa still scan the tree.
func TestEngineSharedTableMemo(t *testing.T) {
	space := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}
	net := datagen.NewNetwork(16, space, 2008)
	metric := netmetric.FromNetwork(net)

	cpts := net.Points(datagen.Config{N: 500, Dist: datagen.Clustered, Seed: 5})
	customers, err := IndexCustomers(cpts)
	if err != nil {
		t.Fatal(err)
	}
	defer customers.Close()

	// 10 providers × 500 customers = 5000 pairs, over DistTableMinPairs,
	// so every instance takes the table path.
	qpts := net.Points(datagen.Config{N: 10, Dist: datagen.Uniform, Seed: 42})
	caps := datagen.Capacities(len(qpts), 20, 60, 7)
	providers := make([]Provider, len(qpts))
	for q := range providers {
		providers[q] = Provider{Pt: qpts[q], Cap: caps[q]}
	}
	solvers := []string{"ida", "nia", "ria", "sspa", "greedy"}
	batch := make([]Instance, len(solvers))
	for i, s := range solvers {
		in := Instance{Label: s, Providers: providers, Customers: customers, Solver: s}
		in.Options.Core.Metric = metric
		batch[i] = in
	}

	eng := &Engine{Workers: 4}
	defer eng.Close()
	got := submitAll(context.Background(), eng, batch)
	solvedAll(t, got)

	// Point-query reference: same batch over the metric the registry
	// builds no table for.
	ref := make([]Instance, len(batch))
	copy(ref, batch)
	for i := range ref {
		ref[i].Options.Core.Metric = pointQueries{metric}
	}
	refEng := &Engine{Workers: 1}
	defer refEng.Close()
	want := submitAll(context.Background(), refEng, ref)
	solvedAll(t, want)
	for i := range batch {
		if s := solvers[i]; s == "ida" || s == "nia" || s == "greedy" {
			io := got[i].Result.Metrics.IO
			if io != (IOStats{}) {
				t.Errorf("solver %s: network expansion read R-tree pages: %+v", s, io)
			}
			if want[i].Result.Metrics.IO.Faults == 0 {
				t.Errorf("solver %s: the R-tree path read no pages; the I/O check above proves nothing", s)
			}
			want[i].Result.Metrics.IO, want[i].Result.Metrics.IOTime = IOStats{}, 0
		}
		a, b := fingerprint(got[i]), fingerprint(want[i])
		if a != b {
			t.Errorf("solver %s: table path diverged from point queries:\ntable: %s\npoint: %s", solvers[i], a, b)
		}
	}
}

// TestEngineBatchNetworkMetric runs a parallel batch over one shared
// NetworkMetric and asserts (a) no result depends on scheduling — the
// parallel run is byte-identical to the sequential one even though the
// second run hits a cache warmed in racy order — and (b) the shared
// caches actually absorbed work across instances.
func TestEngineBatchNetworkMetric(t *testing.T) {
	batch, customers, metric := networkBatch(t, 12)
	defer customers.Close()

	seq := submitAll(context.Background(), &Engine{Workers: 1}, batch)
	par := submitAll(context.Background(), &Engine{Workers: 8}, batch)
	solvedAll(t, seq)
	solvedAll(t, par)
	for i := range batch {
		a, b := fingerprint(seq[i]), fingerprint(par[i])
		if a != b {
			t.Errorf("instance %d diverged under the shared metric:\nsequential: %s\nparallel:   %s", i, a, b)
		}
	}
	st := metric.Stats()
	if st.NodeHits == 0 || st.SnapHits == 0 {
		t.Errorf("shared metric caches never hit across the batch: %+v", st)
	}
	// Exact instances must validate under the network metric too: the
	// validator checks structure and cost-sum consistency, which are
	// metric-independent.
	for i, r := range par {
		if batch[i].Solver == "greedy" {
			continue
		}
		if err := Validate(batch[i].Providers, customers, &r.Result.Result); err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
	}
}

// TestCustomersNetworkIndex pins the lifetime of a dataset's network
// index: built once per road network — shared by every clone and every
// metric over that network — read through a private buffer so no
// handle's I/O counters or cache see the build, and gone with the
// dataset.
func TestCustomersNetworkIndex(t *testing.T) {
	space := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}
	net := datagen.NewNetwork(12, space, 2008)
	m := netmetric.FromNetwork(net)
	customers, err := IndexCustomers(net.Points(datagen.Config{N: 400, Dist: datagen.Clustered, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	h, err := customers.Clone()
	if err != nil {
		t.Fatal(err)
	}
	io0, resident0 := h.IOStats(), h.BufferResident()
	x := h.NetworkIndex(m)
	if x == nil || x.Network() != m {
		t.Fatal("clone built no index over the metric")
	}
	if customers.NetworkIndex(m) != x {
		t.Fatal("the original handle rebuilt the index its clone built")
	}
	if customers.NetworkIndex(netmetric.FromNetwork(net)) != x {
		t.Fatal("a second metric over the same network rebuilt the index")
	}
	other := netmetric.FromNetwork(datagen.NewNetwork(12, space, 2009))
	if y := customers.NetworkIndex(other); y == nil || y == x || y.Network() != other {
		t.Fatal("a second network did not get its own index")
	}
	if io := h.IOStats(); io != io0 || h.BufferResident() != resident0 {
		t.Fatalf("the index build touched the clone's buffer: %+v → %+v, %d → %d pages resident", io0, io, resident0, h.BufferResident())
	}
	if err := customers.Close(); err != nil {
		t.Fatal(err)
	}
	if h.NetworkIndex(m) != nil {
		t.Fatal("the index outlived the dataset's Close")
	}
}
