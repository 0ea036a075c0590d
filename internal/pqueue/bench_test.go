package pqueue

import (
	"math/rand"
	"testing"
)

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]float64, 1024)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var h Heap
	for i := 0; i < b.N; i++ {
		h.Push(int32(i), keys[i%len(keys)])
		if h.Len() > 512 {
			h.Pop()
		}
	}
}

func BenchmarkDecreaseKey(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n = 4096
	h := NewIndexed()
	for i := int32(0); i < n; i++ {
		h.Push(i, 1e9+rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hd := int32(i % n)
		if h.Contains(hd) {
			h.Update(hd, h.Key(hd)-1)
		}
	}
}
