package pqueue

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func drain(h *Heap) []float64 {
	var keys []float64
	for h.Len() > 0 {
		keys = append(keys, h.Pop().Key)
	}
	return keys
}

func TestPushPopOrdered(t *testing.T) {
	var h Heap
	in := []float64{5, 3, 8, 1, 9, 2, 7}
	for i, k := range in {
		h.Push(int32(i), k)
	}
	got := drain(&h)
	want := append([]float64(nil), in...)
	sort.Float64s(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v want %v", got, want)
		}
	}
	if h.Len() != 0 {
		t.Fatal("drained heap must be empty")
	}
}

func TestDuplicateKeys(t *testing.T) {
	h := NewIndexed()
	for i := int32(0); i < 10; i++ {
		h.Push(i, 1.0)
	}
	seen := make(map[int32]bool)
	for h.Len() > 0 {
		e := h.Pop()
		if seen[e.H] {
			t.Fatalf("handle %d popped twice", e.H)
		}
		seen[e.H] = true
	}
	if len(seen) != 10 {
		t.Fatalf("lost entries: %d", len(seen))
	}
}

// TestLazyDuplicatePushes pins the lazy mode netmetric relies on: one
// handle pushed at several keys pops once per push, in key order.
func TestLazyDuplicatePushes(t *testing.T) {
	var h Heap
	h.Push(7, 5)
	h.Push(7, 2)
	h.Push(3, 4)
	h.Push(7, 9)
	want := []Entry{{2, 7}, {4, 3}, {5, 7}, {9, 7}}
	for _, w := range want {
		if got := h.Pop(); got != w {
			t.Fatalf("lazy pop %v want %v", got, w)
		}
	}
}

func TestUpdateDecrease(t *testing.T) {
	h := NewIndexed()
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.Update(1, 5)
	if got := h.Pop().H; got != 1 {
		t.Fatalf("decrease-key: got %d want 1", got)
	}
}

func TestUpdateIncrease(t *testing.T) {
	h := NewIndexed()
	h.Push(0, 10)
	h.Push(1, 20)
	h.Update(0, 25)
	if h.Key(0) != 25 {
		t.Fatalf("Key after update = %v, want 25", h.Key(0))
	}
	if got := h.Pop().H; got != 1 {
		t.Fatalf("increase-key: got %d want 1", got)
	}
	if got := h.Pop().H; got != 0 {
		t.Fatalf("increase-key second: got %d want 0", got)
	}
}

func TestRemove(t *testing.T) {
	h := NewIndexed()
	for i := int32(0); i < 10; i++ {
		h.Push(i, float64(i))
	}
	h.Remove(0) // min
	h.Remove(5) // middle
	h.Remove(9) // max
	if h.Contains(0) || h.Contains(5) || h.Contains(9) {
		t.Fatal("removed handles must not be contained")
	}
	got := drain(&h)
	want := []float64{1, 2, 3, 4, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestClear(t *testing.T) {
	h := NewIndexed()
	h.Push(1, 1)
	h.Push(4, 2)
	h.Pop()
	h.Clear()
	if h.Len() != 0 || h.Contains(1) || h.Contains(4) {
		t.Fatal("Clear must empty the heap and drop every handle")
	}
	for i, p := range h.pos {
		if p != -1 {
			t.Fatalf("index slot %d = %d after Clear; want -1", i, p)
		}
	}
	h.Push(2, 2)
	if h.Pop().H != 2 {
		t.Fatal("heap must be reusable after Clear")
	}
}

// TestContainsBeyondIndex: handles past the index are simply absent.
func TestContainsBeyondIndex(t *testing.T) {
	h := NewIndexed()
	if h.Contains(1) || h.Contains(100) {
		t.Fatal("fresh indexed heap must contain nothing")
	}
	h.Push(100, 1)
	if !h.Contains(100) || h.Contains(99) {
		t.Fatal("Push must extend the index to its handle")
	}
}

// Property: for any sequence of pushes and random key updates, popping
// yields keys in non-decreasing order and returns every surviving entry.
func TestHeapPropertyUnderUpdates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		h := NewIndexed()
		for i := 0; i < n; i++ {
			h.Push(int32(i), rng.Float64()*100)
		}
		for i := 0; i < n/2; i++ {
			h.Update(int32(rng.Intn(n)), rng.Float64()*100)
		}
		prev := -1.0
		count := 0
		for h.Len() > 0 {
			e := h.Pop()
			if e.Key < prev {
				return false
			}
			prev = e.Key
			count++
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var h Heap
	h.Push(1, 2)
	h.Push(2, 1)
	if h.Peek().H != 2 || h.Len() != 2 {
		t.Fatal("Peek must not remove")
	}
}

// fuzzKeys biases keys toward a handful of values so ties, and the
// sift rule's tie-breaks, are exercised constantly.
var fuzzKeys = []float64{0, math.Copysign(0, -1), 1, 1, 2, 2, 2.5, 3, -1, math.Inf(1)}

const fuzzHandles = 12

// FuzzHeap replays arbitrary operation sequences on the flat heap and on
// the pointer-handle oracle it replaced, and requires every Peek and Pop
// to return the same handle with the same key bits. Each input drives
// an indexed heap (Push, Pop, Update up/down/equal, Remove, Clear) and
// then a lazy heap (duplicate pushes, Pop, Clear).
func FuzzHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 2, 1, 3, 2, 4, 0, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 5, 1, 0, 6, 6, 6, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			return // long inputs add no coverage, only minimization time
		}
		fuzzIndexed(t, ops)
		fuzzLazy(t, ops)
	})
}

func sameEntry(t *testing.T, what string, got Entry, want *item) {
	t.Helper()
	if want == nil {
		t.Fatalf("%s: flat heap returned %v, oracle is empty", what, got)
	}
	if got.H != want.h || math.Float64bits(got.Key) != math.Float64bits(want.key) {
		t.Fatalf("%s: flat heap returned (%d, %v), oracle (%d, %v)", what, got.H, got.Key, want.h, want.key)
	}
}

func fuzzIndexed(t *testing.T, ops []byte) {
	h := NewIndexed()
	var ref itemHeap
	items := make([]*item, fuzzHandles)
	// enqueued returns an enqueued handle chosen by b, or -1.
	enqueued := func(b byte) int32 {
		for i := 0; i < fuzzHandles; i++ {
			hd := int32((int(b) + i) % fuzzHandles)
			if items[hd] != nil && items[hd].index >= 0 {
				return hd
			}
		}
		return -1
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%7, ops[i+1]
		switch op {
		case 0, 1: // push
			hd := int32(arg % fuzzHandles)
			key := fuzzKeys[int(arg/fuzzHandles)%len(fuzzKeys)]
			if h.Contains(hd) {
				continue
			}
			h.Push(hd, key)
			items[hd] = ref.Push(hd, key)
		case 2: // pop
			if h.Len() > 0 {
				sameEntry(t, "Pop", h.Pop(), ref.Pop())
			}
		case 3: // update: down, up or equal
			hd := enqueued(arg)
			if hd < 0 {
				continue
			}
			key := h.Key(hd)
			switch arg % 3 {
			case 0:
				key++
			case 1:
				key--
			}
			if arg%5 == 0 {
				key = fuzzKeys[int(arg)%len(fuzzKeys)]
			}
			h.Update(hd, key)
			ref.Update(items[hd], key)
		case 4: // remove
			if hd := enqueued(arg); hd >= 0 {
				h.Remove(hd)
				ref.Remove(items[hd])
			}
		case 5: // clear
			if arg%4 == 0 {
				h.Clear()
				ref.Clear()
			}
		case 6: // peek
			if h.Len() > 0 {
				sameEntry(t, "Peek", h.Peek(), ref.Peek())
			}
		}
		if h.Len() != ref.Len() {
			t.Fatalf("after op %d: Len %d, oracle %d", op, h.Len(), ref.Len())
		}
		for hd, it := range items {
			if in := it != nil && it.index >= 0; h.Contains(int32(hd)) != in {
				t.Fatalf("after op %d: Contains(%d) = %v, oracle %v", op, hd, !in, in)
			}
		}
	}
	for h.Len() > 0 {
		sameEntry(t, "drain", h.Pop(), ref.Pop())
	}
}

func fuzzLazy(t *testing.T, ops []byte) {
	var h Heap
	var ref itemHeap
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%4, ops[i+1]
		switch op {
		case 0, 1: // push, duplicates allowed
			hd := int32(arg % fuzzHandles)
			key := fuzzKeys[int(arg/fuzzHandles)%len(fuzzKeys)]
			h.Push(hd, key)
			ref.Push(hd, key)
		case 2:
			if h.Len() > 0 {
				sameEntry(t, "lazy Pop", h.Pop(), ref.Pop())
			}
		case 3:
			if arg%4 == 0 {
				h.Clear()
				ref.Clear()
			}
		}
	}
	for h.Len() > 0 {
		sameEntry(t, "lazy drain", h.Pop(), ref.Pop())
	}
}
