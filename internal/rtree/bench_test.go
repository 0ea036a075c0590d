package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/storage"
)

func benchItems(n int) []Item {
	rng := rand.New(rand.NewSource(99))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: int64(i), Pt: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}}
	}
	return items
}

func BenchmarkBulkLoad10K(b *testing.B) {
	items := benchItems(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bulk(storage.NewBuffer(storage.NewMemStore(1024), 1<<20), items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeSearch(b *testing.B) {
	tr, err := Bulk(storage.NewBuffer(storage.NewMemStore(1024), 1<<20), benchItems(20000))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		center := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		if _, err := tr.RangeSearch(center, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNN100(b *testing.B) {
	tr, err := Bulk(storage.NewBuffer(storage.NewMemStore(1024), 1<<20), benchItems(20000))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := tr.KNN(geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, 100)
		if err != nil || len(got) != 100 {
			b.Fatalf("KNN returned %d items: %v", len(got), err)
		}
	}
}

func BenchmarkANNSearch(b *testing.B) {
	tr, err := Bulk(storage.NewBuffer(storage.NewMemStore(1024), 1<<20), benchItems(20000))
	if err != nil {
		b.Fatal(err)
	}
	queries := randQueries(16, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NewANNSearch(tr, queries, testSpace, 8)
		for qi := range queries {
			for k := 0; k < 50; k++ {
				if _, _, ok, err := src.Next(qi); err != nil || !ok {
					b.Fatal("ANN ended early")
				}
			}
		}
	}
}
