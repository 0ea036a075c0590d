package core

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
)

// TestNetworkExpansionStoresEdgeLengths pins that a table-path solve
// measures each pair once: the network nearest-neighbour stream
// computes every candidate's distance from the table's rows, and the
// flow graph keeps the lengths it is handed (edges, then assignments),
// so IDA, NIA and the greedy join make no metric call at all. The same
// solves over the R-tree stream (no Options.Table) must match them in
// cost bits, size and |Esub| — and do call the metric, which shows the
// counter works.
func TestNetworkExpansionStoresEdgeLengths(t *testing.T) {
	in := genInstance(t, 10, 600, 30, 7)
	m := netmetric.FromNetwork(datagen.NewNetwork(16, DefaultSpace, 2008))
	pts := make([]geo.Point, len(in.providers))
	for i, p := range in.providers {
		pts[i] = p.Pt
	}
	ids := make([]int64, len(in.items))
	cpts := make([]geo.Point, len(in.items))
	for i, it := range in.items {
		ids[i], cpts[i] = it.ID, it.Pt
	}
	index := m.IndexPoints(ids, cpts)
	algos := map[string]func([]Provider, *Options) (*Result, error){
		"ida":    func(p []Provider, o *Options) (*Result, error) { return IDA(p, in.tree, *o) },
		"nia":    func(p []Provider, o *Options) (*Result, error) { return NIA(p, in.tree, *o) },
		"greedy": func(p []Provider, o *Options) (*Result, error) { return SMJoin(p, in.tree, *o) },
	}
	for name, run := range algos {
		var res [2]*Result
		var calls [2]int
		for k, stream := range []bool{true, false} {
			table := m.BuildTable(pts, 0)
			counted := &countingMetric{Metric: table}
			opts := Options{Metric: counted}
			if stream {
				opts.Table, opts.NetIndex = table, index
			}
			r, err := run(in.providers, &opts)
			if err != nil {
				t.Fatalf("%s (stream %v): %v", name, stream, err)
			}
			res[k], calls[k] = r, counted.calls
		}
		if calls[0] != 0 {
			t.Errorf("%s: the table-path solve made %d metric calls; want 0", name, calls[0])
		}
		if calls[1] == 0 {
			t.Errorf("%s: the R-tree-path solve made no metric call; the counter is not wired", name)
		}
		a, b := res[0], res[1]
		if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || a.Size != b.Size || a.Metrics.SubgraphEdges != b.Metrics.SubgraphEdges {
			t.Errorf("%s: stream cost %v size %d |Esub| %d, R-tree stream cost %v size %d |Esub| %d",
				name, a.Cost, a.Size, a.Metrics.SubgraphEdges, b.Cost, b.Size, b.Metrics.SubgraphEdges)
		}
		if a.Metrics.IO.Faults+a.Metrics.IO.Hits != 0 {
			t.Errorf("%s: the table-path solve read R-tree pages: %+v", name, a.Metrics.IO)
		}
	}
}
