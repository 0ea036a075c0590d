package expr

import (
	"fmt"
	"io"
	"time"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
)

// NetBackends is the distance-backend trajectory behind BENCH_net.json:
// one instance (the Table 2 default at the given scale, shard-sweep
// capacities), solved cold by IDA under every network-distance backend
// plus the Euclidean baseline for context. Each network row rebuilds a
// fresh metric, so nothing is amortized across rows — the CPU column is
// the full cold cost including hierarchy/table preprocessing
// (the solver charges table builds to CPUTime; the sweeps run inside
// the solve's Dist calls).
//
// Rows:
//
//	euclid    straight-line distance (the paper's setting)
//	dijkstra  canonical plain forward Dijkstra point queries — the
//	          reference benchgate's floors are stated against
//	ch        contraction-hierarchy point queries (table disabled, so
//	          the row isolates the cold point-query win)
//	table     the provider-sourced distance table (one on-demand sweep
//	          per provider snap-edge endpoint), plain Dijkstra for any
//	          point query it does not cover
//
// dijkstra, ch and table return byte-identical matchings (the root
// conformance suite pins this). dijkstra and table pin SetCH(0) so
// automatic CH enablement (16K nodes clears DefaultCHMinNodes) cannot
// reroute their point queries.
//
// Every network row also records QueryNS, the mean cold point-query
// latency of its backend measured by coldQueryNS on a second fresh
// metric. The solve CPU column answers "what does a whole assignment
// cost end to end" — where Amdahl caps any backend's win at the
// solver's share — while QueryNS answers "what does one uncached
// distance cost", the figure the CH hierarchy exists to shrink and the
// one benchgate's CH-vs-dijkstra floor gates on.
func (c Config) NetBackends(s float64, out io.Writer) ([]Row, error) {
	p := Default(s)
	// The figure sweeps run on the default 32×32 grid (1K nodes), where
	// a point Dijkstra is microseconds and the solver itself dominates —
	// no distance backend could show its shape there (Amdahl caps the
	// end-to-end gain near 1). This sweep is *about* the distance
	// backend, so it uses a road network at a realistic granularity:
	// 128×128 ≈ 16K nodes, the regime the hierarchy and bulk tables
	// exist for.
	const netGrid = 128

	// The workload (points, tree, buffer) is metric-independent; build
	// it once and swap a fresh metric in per row so every solve is cold.
	w, err := c.BuildOnGrid(p, netGrid)
	if err != nil {
		return nil, err
	}

	backends := []struct {
		name  string
		setup func(m *netmetric.NetworkMetric) // nil = Euclidean row
		table int                              // core.Options.DistTable for the row
	}{
		{"euclid", nil, 0},
		{"dijkstra", func(m *netmetric.NetworkMetric) { m.SetCH(0) }, -1},
		{"ch", func(m *netmetric.NetworkMetric) { m.SetCH(1) }, -1},
		{"table", func(m *netmetric.NetworkMetric) { m.SetCH(0) }, 0},
	}

	var rows []Row
	for _, b := range backends {
		if b.setup == nil {
			w.Metric = nil
		} else {
			m := netmetric.FromNetwork(datagen.NewNetwork(netGrid, Space, p.Seed))
			b.setup(m)
			w.Metric = m
		}
		opts := c.coreOptions(p)
		opts.DistTable = b.table
		row, err := runExact("ida", w, opts)
		if err != nil {
			return nil, err
		}
		row.Label = b.name
		if b.setup != nil {
			// Cold point-query latency on a *second* fresh metric, so the
			// measurement never warms the solve (which stays cold) and the
			// solve never warms the measurement. This is the per-query
			// figure benchgate's CH floor gates on; preprocessing (hierarchy
			// construction) is excluded — the CPU column already charges it
			// to the cold solve.
			mq := netmetric.FromNetwork(datagen.NewNetwork(netGrid, Space, p.Seed))
			b.setup(mq)
			row.QueryNS = coldQueryNS(mq, w)
		}
		rows = append(rows, row)
	}
	PrintRows(out, fmt.Sprintf("Network distance backends: cold ida solves, |Q|=%d |P|=%d k(cap)=%d",
		p.NQ, p.NP, p.K), rows, false)

	byLabel := map[string]Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	ref, ch, tab := byLabel["dijkstra"], byLabel["ch"], byLabel["table"]
	if ch.CPU > 0 && tab.CPU > 0 {
		fmt.Fprintf(out, "cold-solve speedup vs dijkstra: ch %.2fx, table %.2fx\n",
			float64(ref.CPU)/float64(ch.CPU), float64(ref.CPU)/float64(tab.CPU))
	}
	if ref.QueryNS > 0 && ch.QueryNS > 0 {
		fmt.Fprintf(out, "cold point query: dijkstra %v, ch %v (%.1fx)\n",
			ref.QueryNS.Round(time.Microsecond), ch.QueryNS.Round(time.Microsecond),
			float64(ref.QueryNS)/float64(ch.QueryNS))
	}
	return rows, nil
}

// queryProbes is the number of cold point queries coldQueryNS averages
// over. Distinct customer endpoints keep every probe a first touch;
// 256 is enough to swamp timer noise on either side of the ~100x
// dijkstra-vs-CH spread without warming a meaningful share of the
// working set.
const queryProbes = 256

// coldQueryNS measures the mean cold point-query latency of a fresh
// metric against the sweep's own workload: probe i pairs provider
// i mod |Q| with customer i, so every probe is a pair the metric has
// never answered (caches empty, cones unbuilt). One untimed warmup
// query on customer points outside the probe range forces the one-off
// hierarchy construction first — it is charged to the cold-solve CPU
// column, not to the per-query figure this feeds benchgate's CH floor.
func coldQueryNS(m geo.Metric, w *Workload) time.Duration {
	if len(w.Providers) == 0 || len(w.Items) <= queryProbes+1 {
		return 0
	}
	m.Dist(w.Items[queryProbes].Pt, w.Items[queryProbes+1].Pt)
	var sink float64
	start := time.Now()
	for i := 0; i < queryProbes; i++ {
		sink += m.Dist(w.Providers[i%len(w.Providers)].Pt, w.Items[i].Pt)
	}
	el := time.Since(start)
	if sink < 0 {
		panic("negative distance sum")
	}
	return el / queryProbes
}
