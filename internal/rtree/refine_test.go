package rtree_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/geo/netmetric"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// The refinement tests live in the external package so they can run
// RefinedNN over the real road-network metric (netmetric imports rtree).

var refineSpace = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

// warpedMetric is a deliberately non-Euclidean test metric that honors
// the lower-bound contract: Dist = euclid * (1.5 + 0.5·sin(x_p+x_q)),
// always in [euclid, 2·euclid], symmetric, and it reorders neighbors
// relative to Euclidean distance.
type warpedMetric struct{}

func (warpedMetric) Name() string { return "warped" }
func (warpedMetric) Dist(p, q geo.Point) float64 {
	return p.Dist(q) * (1.5 + 0.5*math.Sin(p.X+q.X))
}

func randPoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return pts
}

func itemsOf(pts []geo.Point) []rtree.Item {
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{ID: int64(i), Pt: p}
	}
	return items
}

func packedTree(t *testing.T, items []rtree.Item) *rtree.Tree {
	t.Helper()
	tr, err := rtree.Bulk(storage.NewBuffer(storage.NewMemStore(1024), 1024), items)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func refinedOver(tr *rtree.Tree, queries []geo.Point, m geo.Metric, ann bool) *rtree.RefinedNN {
	var base rtree.NNSource
	if ann {
		base = rtree.NewANNSearch(tr, queries, refineSpace, 4)
	} else {
		base = rtree.NewPerQueryNN(tr, queries)
	}
	return rtree.NewRefinedNN(base, queries, m)
}

// RefinedNN must stream every item exactly once, in ascending *metric*
// order, with the metric distance as the reported key — over both base
// sources, under a warped metric and under the road-network metric. The
// network points sit on a 16-grid's edges, and a fifth of them are
// duplicated, so exact ties in both the Euclidean key and the network
// distance occur; there every key's bits must equal metric.Dist.
func TestRefinedNNMatchesBruteForce(t *testing.T) {
	net := datagen.NewNetwork(16, refineSpace, 2008)
	netPts := net.Points(datagen.Config{N: 400, Dist: datagen.Clustered, Seed: 7})
	netPts = append(netPts, netPts[:80]...)
	netQueries := net.Points(datagen.Config{N: 6, Dist: datagen.Uniform, Seed: 8})
	for _, tc := range []struct {
		name    string
		metric  geo.Metric
		pts     []geo.Point
		queries []geo.Point
		ann     bool
	}{
		{"per-query", warpedMetric{}, randPoints(600, 51), randPoints(6, 53), false},
		{"ann", warpedMetric{}, randPoints(600, 51), randPoints(6, 53), true},
		{"network-per-query", netmetric.FromNetwork(net), netPts, netQueries, false},
		{"network-ann", netmetric.FromNetwork(net), netPts, netQueries, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := itemsOf(tc.pts)
			src := refinedOver(packedTree(t, items), tc.queries, tc.metric, tc.ann)
			for qi, q := range tc.queries {
				want := make([]float64, 0, len(items))
				for _, it := range items {
					want = append(want, tc.metric.Dist(q, it.Pt))
				}
				sort.Float64s(want)
				seen := make(map[int64]bool)
				for k := range want {
					it, d, ok, err := src.Next(qi)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("q%d exhausted at rank %d of %d", qi, k, len(want))
					}
					if seen[it.ID] {
						t.Fatalf("q%d: item %d delivered twice", qi, it.ID)
					}
					seen[it.ID] = true
					if d != want[k] {
						t.Fatalf("q%d rank %d: got %v want %v", qi, k, d, want[k])
					}
					if got := tc.metric.Dist(q, it.Pt); got != d {
						t.Fatalf("q%d rank %d: reported key %v is not the metric distance %v", qi, k, d, got)
					}
				}
				if _, _, ok, _ := src.Next(qi); ok {
					t.Fatalf("q%d: source yielded more than %d items", qi, len(items))
				}
			}
		})
	}
}

// Under the Euclidean metric the refinement layer must be a transparent
// pass-through (same order, same distances).
func TestRefinedNNEuclideanPassThrough(t *testing.T) {
	items := itemsOf(randPoints(200, 57))
	queries := randPoints(3, 59)
	plain := rtree.NewPerQueryNN(packedTree(t, items), queries)
	refined := refinedOver(packedTree(t, items), queries, geo.Euclidean, false)
	for qi := range queries {
		for k := 0; k < len(items); k++ {
			pi, pd, pok, _ := plain.Next(qi)
			ri, rd, rok, _ := refined.Next(qi)
			if pok != rok || (pok && (pi.ID != ri.ID || math.Abs(pd-rd) > 1e-12)) {
				t.Fatalf("q%d rank %d: plain (%v,%f,%v) != refined (%v,%f,%v)",
					qi, k, pi.ID, pd, pok, ri.ID, rd, rok)
			}
		}
	}
}

// Interleaved consumption across queries must not cross-contaminate the
// per-query refinement heaps.
func TestRefinedNNInterleaved(t *testing.T) {
	items := itemsOf(randPoints(150, 61))
	queries := randPoints(4, 63)
	src := refinedOver(packedTree(t, items), queries, warpedMetric{}, true)
	prev := make([]float64, len(queries))
	for round := 0; round < 30; round++ {
		for qi := range queries {
			_, d, ok, err := src.Next(qi)
			if err != nil || !ok {
				t.Fatalf("q%d round %d: ok=%v err=%v", qi, round, ok, err)
			}
			if d < prev[qi]-1e-9 {
				t.Fatalf("q%d round %d: distance went backwards (%f after %f)", qi, round, d, prev[qi])
			}
			prev[qi] = d
		}
	}
}
