package solver

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo/netmetric"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// indexedItems is an in-memory dataset that hands out one prebuilt
// snap-edge index, as cca.Customers hands out its memoized one, so the
// table path is not charged an index build per solve.
type indexedItems struct {
	Dataset
	x *netmetric.PointIndex
}

func (d indexedItems) NetworkIndex(*netmetric.NetworkMetric) *netmetric.PointIndex { return d.x }

// BenchmarkNetworkNNPaths times ida and greedy on both nearest-neighbour
// paths of a road-network solve: "table" streams candidates by network
// expansion over a provider-sourced distance table, "points" streams
// them from the R-tree and answers each distance with a point query.
// DistTableMinPairs chooses between them by instance size alone; this
// benchmark measures each side of that choice:
//
//	sparse  128-grid (16K nodes), 8 providers × 400 clustered
//	        customers = 3,200 pairs, below DistTableMinPairs
//	dense   32-grid (1K nodes), 8 providers × 600 clustered
//	        customers = 4,800 pairs, above it
//
// Every iteration solves a fresh provider set (capacity 40 each) over
// one warm metric: the hierarchy is built and the customers indexed
// before timing, as in a long-running server. The table path includes
// its row allocation, which the registry charges to the solve.
func BenchmarkNetworkNNPaths(b *testing.B) {
	ctx := context.Background()
	seed := int64(0)
	for _, inst := range []struct {
		name            string
		grid, customers int
	}{
		{"sparse", 128, 400},
		{"dense", 32, 600},
	} {
		net := datagen.NewNetwork(inst.grid, netSpace, 2008)
		metric := netmetric.FromNetwork(net)
		pts := net.Points(datagen.Config{N: inst.customers, Dist: datagen.Clustered, Seed: 5})
		items := make([]rtree.Item, len(pts))
		for i, p := range pts {
			items[i] = rtree.Item{ID: int64(i), Pt: p}
		}
		tree, err := rtree.Bulk(storage.NewBuffer(storage.NewMemStore(storage.DefaultPageSize), 1<<20), items)
		if err != nil {
			b.Fatal(err)
		}
		data := indexedItems{Dataset: FromTreeItems(tree, items), x: IndexItems(metric, items)}
		metric.NodeDist(0, int32(metric.NumNodes()-1)) // builds the hierarchy
		for _, algo := range []string{"ida", "greedy"} {
			for _, path := range []string{"table", "points"} {
				b.Run(inst.name+"/"+algo+"/"+path, func(b *testing.B) {
					s := MustGet(algo)
					for i := 0; i < b.N; i++ {
						seed++
						qpts := net.Points(datagen.Config{N: 8, Dist: datagen.Uniform, Seed: seed})
						providers := make([]core.Provider, len(qpts))
						for j, q := range qpts {
							providers[j] = core.Provider{Pt: q, Cap: 40}
						}
						var opts Options
						if path == "table" {
							t := metric.BuildTable(qpts, 0)
							if t == nil {
								b.Fatal("the table declined the provider set")
							}
							opts.Core.Metric, opts.Core.Table = t, t
						} else {
							opts.Core.Metric = pointQueries{metric}
						}
						res, err := s.Solve(ctx, providers, data, opts)
						if err != nil {
							b.Fatal(err)
						}
						if res.Size != 8*40 {
							b.Fatalf("matching size %d, want %d", res.Size, 8*40)
						}
					}
				})
			}
		}
	}
}
