package pqueue

// itemHeap is the pointer-handle heap this package shipped before the
// flat Heap: one heap-allocated item per push, each carrying its own
// position. FuzzHeap replays every operation sequence against it, so
// the flat heap must reproduce its pop order exactly, ties included.
type itemHeap struct {
	items []*item
}

type item struct {
	h     int32
	key   float64
	index int // position in the heap slice; -1 when not enqueued
}

func (h *itemHeap) Len() int { return len(h.items) }

func (h *itemHeap) Push(hd int32, key float64) *item {
	it := &item{h: hd, key: key, index: len(h.items)}
	h.items = append(h.items, it)
	h.up(it.index)
	return it
}

func (h *itemHeap) Peek() *item {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *itemHeap) Pop() *item {
	if len(h.items) == 0 {
		return nil
	}
	top := h.items[0]
	h.swap(0, len(h.items)-1)
	h.items = h.items[:len(h.items)-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	top.index = -1
	return top
}

func (h *itemHeap) Update(it *item, key float64) {
	old := it.key
	it.key = key
	switch {
	case key < old:
		h.up(it.index)
	case key > old:
		h.down(it.index)
	}
}

func (h *itemHeap) Remove(it *item) {
	i := it.index
	last := len(h.items) - 1
	h.swap(i, last)
	h.items = h.items[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	it.index = -1
}

func (h *itemHeap) Clear() {
	for i, it := range h.items {
		it.index = -1
		h.items[i] = nil
	}
	h.items = h.items[:0]
}

func (h *itemHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

func (h *itemHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].key <= h.items[i].key {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *itemHeap) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.items[right].key < h.items[left].key {
			smallest = right
		}
		if h.items[i].key <= h.items[smallest].key {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
