package cca

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
)

// shardedBatch builds instances that all run the sharded meta-solver
// over ONE shared dataset and ONE shared NetworkMetric — the stress
// shape where engine workers race on the metric's caches while every
// instance internally fans out onto its own region pool. Run under
// -race (the CI race job) this is the sharded path's thread-safety
// test; the assertions below extend the byte-identical determinism
// suite to it.
func shardedBatch(t testing.TB, instances int) ([]Instance, *Customers, *netmetric.NetworkMetric) {
	t.Helper()
	space := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}
	net := datagen.NewNetwork(12, space, 2008)
	metric := netmetric.FromNetwork(net)

	cpts := net.Points(datagen.Config{N: 600, Dist: datagen.Clustered, Seed: 9})
	customers, err := IndexCustomers(cpts)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Instance, instances)
	for i := range batch {
		qpts := net.Points(datagen.Config{N: 6 + i%4, Dist: datagen.Uniform, Seed: int64(300 + i)})
		caps := datagen.Capacities(len(qpts), 3, 20, int64(i))
		providers := make([]Provider, len(qpts))
		for q := range providers {
			providers[q] = Provider{Pt: qpts[q], Cap: caps[q]}
		}
		in := Instance{
			Label:     fmt.Sprintf("sharded-%d", i),
			Providers: providers,
			Customers: customers,
			Solver:    []string{"sharded:ida", "sharded:sspa", "sharded:greedy"}[i%3],
		}
		in.Options.Core.Metric = metric
		in.Options.Core.Shards = 2 + i%2
		in.Options.Core.ShardWorkers = 2
		batch[i] = in
	}
	return batch, customers, metric
}

// TestEngineShardedDeterminism: many concurrent sharded solves through
// one shared Engine and one shared NetworkMetric must be byte-identical
// to the serial run — engine parallelism on the outside and region
// parallelism on the inside change scheduling only, never answers.
func TestEngineShardedDeterminism(t *testing.T) {
	batch, customers, metric := shardedBatch(t, 9)
	defer customers.Close()

	serialEngine := &Engine{Workers: 1}
	defer serialEngine.Close()
	seq := submitAll(context.Background(), serialEngine, batch)
	parEngine := &Engine{Workers: 8}
	defer parEngine.Close()
	par := submitAll(context.Background(), parEngine, batch)
	solvedAll(t, seq)
	solvedAll(t, par)
	for i := range batch {
		a, b := fingerprint(seq[i]), fingerprint(par[i])
		if a != b {
			t.Errorf("instance %d diverged under concurrent sharded solving:\nsequential: %s\nparallel:   %s", i, a, b)
		}
	}
	if st := metric.Stats(); st.NodeHits == 0 {
		t.Errorf("shared metric caches never hit across the sharded batch: %+v", st)
	}
	for i, r := range par {
		if err := Validate(batch[i].Providers, customers, &r.Result.Result); err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
		if r.Result.Kind != SolverHeuristic || r.Result.Groups < 1 {
			t.Errorf("instance %d: sharded metadata %v/%d", i, r.Result.Kind, r.Result.Groups)
		}
	}
}

// TestEngineShardedStress hammers one engine from many submitting
// goroutines so sharded region pools, the result cache, and the shared
// metric all interleave — a pure -race target with a cheap determinism
// check on repeated instances.
func TestEngineShardedStress(t *testing.T) {
	batch, customers, _ := shardedBatch(t, 6)
	defer customers.Close()

	engine := &Engine{Workers: 6}
	defer engine.Close()

	const rounds = 4
	results := make([][]InstanceResult, rounds)
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		round := round
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A nil context is accepted and means Background.
			results[round] = submitAll(nil, engine, batch)
		}()
	}
	wg.Wait()

	// Which round computes and which is served from the result cache is
	// scheduling-dependent, but the payload must not be (fingerprint
	// ignores the Cached flag and wall timings).
	for round := 1; round < rounds; round++ {
		for i := range batch {
			a, b := fingerprint(results[0][i]), fingerprint(results[round][i])
			if a != b {
				t.Errorf("round %d instance %d diverged:\n%s\n%s", round, i, a, b)
			}
		}
	}
	if st := engine.CacheStats(); st.Hits == 0 {
		t.Errorf("repeated sharded instances never hit the result cache: %+v", st)
	}
}
