package netmetric

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
)

// BenchmarkNetworkMetric measures Dist on the paper-shaped workload
// (clustered points on a 32x32 network) and reports the node-pair cache
// hit rate — the number that decides whether shared-metric batches
// amortize their Dijkstras.
func BenchmarkNetworkMetric(b *testing.B) {
	net := datagen.NewNetwork(32, space, 2008)
	pts := net.Points(datagen.Config{N: 4096, Dist: datagen.Clustered, Seed: 1})
	m := FromNetwork(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		q := pts[(i*31+7)%len(pts)]
		m.Dist(p, q)
	}
	b.StopTimer()
	st := m.Stats()
	b.ReportMetric(st.NodeHitRate(), "node-cache-hit-rate")
	b.ReportMetric(float64(st.NodeMisses), "dijkstras")
}

// BenchmarkNetworkMetricCold isolates the uncached cost the way a cold
// solve pays it: every iteration builds a fresh metric and runs a batch
// of point queries, so any one-time preprocessing is amortized over the
// batch exactly as it is over an instance's P×C distance calls.
func BenchmarkNetworkMetricCold(b *testing.B) {
	net := datagen.NewNetwork(32, space, 2008)
	pts := net.Points(datagen.Config{N: 256, Dist: datagen.Uniform, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := FromNetwork(net)
		for j := 0; j < 64; j++ {
			k := (i*64 + j) % len(pts)
			m.Dist(pts[k], pts[(k+1)%len(pts)])
		}
	}
}

// BenchmarkNetworkMetricPointQuery compares the two point-query
// searches on identical node pairs: the plain forward Dijkstra and the
// contraction hierarchy (one-time preprocessing is excluded here —
// BENCH_net.json charges it to the end-to-end solve where it belongs).
func BenchmarkNetworkMetricPointQuery(b *testing.B) {
	m := FromNetwork(datagen.NewNetwork(32, space, 2008))
	m.SetCH(1)
	ch := m.hierarchy()
	pairs := testPairs(m, 1024, 11)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			sinkDist = m.forwardDijkstra(pr[0], pr[1])
		}
	})
	b.Run("ch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			sinkDist = m.chDist(ch, pr[0], pr[1])
		}
	})
}

// BenchmarkCHLargeGrid is the scale the hierarchy exists for: cold
// point queries on the 128x128 benchmark grid (16384 nodes), where a
// plain Dijkstra settles thousands of nodes per query. The build sub-benchmark
// prices the one-time contraction so the preprocessing cost stays
// visible next to the per-query win; CI smokes this family with
// -bench=CH -benchtime=1x.
func BenchmarkCHLargeGrid(b *testing.B) {
	net := datagen.NewNetwork(128, space, 2008)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := FromNetwork(net)
			m.SetCH(1)
			if m.hierarchy() == nil {
				b.Fatal("hierarchy did not build")
			}
		}
	})
	m := FromNetwork(net)
	m.SetCH(1)
	ch := m.hierarchy()
	pairs := testPairs(m, 4096, 11)
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			sinkDist = m.chDist(ch, pr[0], pr[1])
		}
	})
	// The solver shape: one provider queried against a run of
	// customers, which is what the scatter fast path in chDist exists
	// for. Rotate the source every 4096 queries, mirroring a solve's
	// per-provider edge batches.
	b.Run("query-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src := pairs[(i/4096)%len(pairs)][0]
			sinkDist = m.chDist(ch, src, pairs[i%len(pairs)][1])
		}
	})
}

// BenchmarkManyToMany measures the bulk sweep at roughly the default
// ccabench instance shape (|Q|=50 sources, |P|=2000 targets): one
// matrix fill versus what would otherwise be |Q|·|P| point queries.
func BenchmarkManyToMany(b *testing.B) {
	net := datagen.NewNetwork(32, space, 2008)
	m := FromNetwork(net)
	sources := net.Points(datagen.Config{N: 50, Dist: datagen.Uniform, Seed: 12})
	targets := net.Points(datagen.Config{N: 2000, Dist: datagen.Clustered, Seed: 13})
	out := make([]float64, len(sources)*len(targets))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = m.ManyToManyInto(sources, targets, out)
	}
}

// BenchmarkNetworkMetricParallel exercises the concurrent read path the
// engine's workers take against a warm shared cache.
func BenchmarkNetworkMetricParallel(b *testing.B) {
	net := datagen.NewNetwork(32, space, 2008)
	pts := net.Points(datagen.Config{N: 1024, Dist: datagen.Clustered, Seed: 3})
	m := FromNetwork(net)
	// Warm the caches.
	for i := 0; i+1 < len(pts); i += 2 {
		m.Dist(pts[i], pts[i+1])
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Dist(pts[i%len(pts)], pts[(i*17+5)%len(pts)])
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(m.Stats().NodeHitRate(), "node-cache-hit-rate")
}

var sinkDist float64

// BenchmarkEuclideanBaseline anchors the comparison: the straight-line
// metric the rest of the repo defaults to.
func BenchmarkEuclideanBaseline(b *testing.B) {
	pts := datagen.NewNetwork(32, space, 2008).Points(datagen.Config{N: 1024, Dist: datagen.Clustered, Seed: 3})
	for i := 0; i < b.N; i++ {
		sinkDist = geo.Euclidean.Dist(pts[i%len(pts)], pts[(i*17+5)%len(pts)])
	}
}

// BenchmarkCHConeBuild prices one cold hub-label cone on the 128-grid
// hierarchy — the dominant cost of a cold CH point query (a probe pays
// up to two of these for never-seen endpoints), and the number the
// topological heap-free build keeps small.
func BenchmarkCHConeBuild(b *testing.B) {
	net := datagen.NewNetwork(128, space, 2008)
	m := FromNetwork(net)
	m.SetCH(1)
	ch := m.hierarchy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.buildCone(ch, int32(i%len(m.nodes)))
		if len(c.nodes) == 0 {
			b.Fatal("empty cone")
		}
	}
}
