package flowgraph

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func benchInstance(nq, nc, k int) ([]Provider, []Customer) {
	rng := rand.New(rand.NewSource(11))
	providers := make([]Provider, nq)
	for i := range providers {
		providers[i] = Provider{Pt: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, Cap: k}
	}
	customers := make([]Customer, nc)
	for i := range customers {
		customers[i] = Customer{Pt: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, Cap: 1, ExtID: int64(i)}
	}
	return providers, customers
}

// BenchmarkSSPAComplete measures γ successive-shortest-path iterations
// on the implicit complete bipartite graph (the §2.2 baseline's core).
func BenchmarkSSPAComplete(b *testing.B) {
	providers, customers := benchInstance(10, 500, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGraph(providers, true)
		for _, c := range customers {
			g.AddCustomer(c.Pt, c.Cap, c.ExtID, nil)
		}
		for it := 0; it < 200; it++ {
			g.BeginIteration()
			if _, _, ok := g.Search(); !ok {
				b.Fatal("no path")
			}
			if err := g.Augment(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDijkstraSparse measures searches over a sparse Esub with PUA
// repairs, the inner loop of NIA/IDA.
func BenchmarkDijkstraSparse(b *testing.B) {
	providers, customers := benchInstance(20, 2000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := NewGraph(providers, false)
		idx := make([]int32, len(customers))
		for ci, c := range customers {
			idx[ci] = g.AddCustomer(c.Pt, c.Cap, c.ExtID, nil)
		}
		// Pre-populate Esub with each provider's 100 nearest customers.
		for q := range providers {
			type dc struct {
				c int32
				d float64
			}
			var ds []dc
			for ci := range customers {
				ds = append(ds, dc{idx[ci], providers[q].Pt.Dist(customers[ci].Pt)})
			}
			for a := 0; a < 100; a++ {
				min := a
				for b2 := a + 1; b2 < len(ds); b2++ {
					if ds[b2].d < ds[min].d {
						min = b2
					}
				}
				ds[a], ds[min] = ds[min], ds[a]
				g.AddEdge(int32(q), ds[a].c, ds[a].d)
			}
		}
		b.StartTimer()
		for it := 0; it < 200; it++ {
			g.BeginIteration()
			if _, _, ok := g.Search(); !ok {
				break
			}
			if err := g.Augment(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRefSolve measures the Bellman–Ford oracle (tests-only code,
// benchmarked to keep its cost visible).
func BenchmarkRefSolve(b *testing.B) {
	providers, customers := benchInstance(5, 100, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RefSolve(providers, customers)
	}
}
