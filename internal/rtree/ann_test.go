package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/storage"
)

var testSpace = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

func randQueries(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]geo.Point, n)
	for i := range qs {
		qs[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return qs
}

// Both NN sources must yield, for every query point, exactly the
// brute-force distance order.
func TestNNSourcesMatchBruteForce(t *testing.T) {
	items := randItems(1500, 41)
	tr := bulkTree(t, items)
	queries := randQueries(10, 43)

	sources := map[string]NNSource{
		"per-query": NewPerQueryNN(tr, queries),
		"ann":       NewANNSearch(tr, queries, testSpace, 4),
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			for qi, q := range queries {
				// Pull the first 50 NNs and compare distances.
				want := make([]float64, 0, len(items))
				for _, it := range items {
					want = append(want, q.Dist(it.Pt))
				}
				sort.Float64s(want)
				for k := 0; k < 50; k++ {
					_, d, ok, err := src.Next(qi)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("q%d exhausted at rank %d", qi, k)
					}
					if math.Abs(d-want[k]) > 1e-9 {
						t.Fatalf("q%d rank %d: got %f want %f", qi, k, d, want[k])
					}
				}
			}
		})
	}
}

// Exhausting an NN source must deliver each point exactly once per query.
func TestANNExhaustive(t *testing.T) {
	items := randItems(300, 47)
	tr := bulkTree(t, items)
	queries := randQueries(5, 49)
	src := NewANNSearch(tr, queries, testSpace, 2)
	for qi := range queries {
		seen := make(map[int64]bool)
		prev := -1.0
		for {
			it, d, ok, err := src.Next(qi)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if d < prev {
				t.Fatalf("q%d: non-monotone distances", qi)
			}
			prev = d
			if seen[it.ID] {
				t.Fatalf("q%d: duplicate item %d", qi, it.ID)
			}
			seen[it.ID] = true
		}
		if len(seen) != len(items) {
			t.Fatalf("q%d saw %d of %d items", qi, len(seen), len(items))
		}
	}
}

// The point of grouped ANN: fewer page faults than independent
// per-query search when the query points are clustered.
func TestANNSharesIO(t *testing.T) {
	items := randItems(5000, 53)
	rng := rand.New(rand.NewSource(54))
	// 16 clustered query points.
	queries := make([]geo.Point, 16)
	for i := range queries {
		queries[i] = geo.Point{X: 400 + rng.Float64()*50, Y: 600 + rng.Float64()*50}
	}

	run := func(mk func(*Tree) NNSource) int {
		buf := storage.NewBuffer(storage.NewMemStore(1024), 8)
		tr, err := Bulk(buf, items)
		if err != nil {
			t.Fatal(err)
		}
		buf.DropCache()
		buf.ResetStats()
		src := mk(tr)
		for qi := range queries {
			for k := 0; k < 100; k++ {
				if _, _, ok, err := src.Next(qi); err != nil || !ok {
					t.Fatalf("source ended early: %v", err)
				}
			}
		}
		return buf.Stats().Faults
	}

	perQuery := run(func(tr *Tree) NNSource { return NewPerQueryNN(tr, queries) })
	ann := run(func(tr *Tree) NNSource { return NewANNSearch(tr, queries, testSpace, 8) })
	if ann >= perQuery {
		t.Fatalf("ANN should save I/O: ann=%d per-query=%d faults", ann, perQuery)
	}
}

func TestANNEmptyTree(t *testing.T) {
	tr := emptyTree(t, 256, 16)
	src := NewANNSearch(tr, []geo.Point{{X: 1, Y: 1}}, testSpace, 0)
	if _, _, ok, _ := src.Next(0); ok {
		t.Fatal("empty tree must yield nothing")
	}
}

func TestANNGroupSizes(t *testing.T) {
	items := randItems(500, 59)
	tr := bulkTree(t, items)
	queries := randQueries(7, 61)
	for _, gs := range []int{1, 3, 7, 100} {
		src := NewANNSearch(tr, queries, testSpace, gs)
		for qi, q := range queries {
			_, d, ok, err := src.Next(qi)
			if err != nil || !ok {
				t.Fatalf("gs=%d q%d: %v", gs, qi, err)
			}
			// First NN distance must match brute force.
			best := math.Inf(1)
			for _, it := range items {
				if dd := q.Dist(it.Pt); dd < best {
					best = dd
				}
			}
			if math.Abs(d-best) > 1e-9 {
				t.Fatalf("gs=%d q%d: first NN %f want %f", gs, qi, d, best)
			}
		}
	}
}
