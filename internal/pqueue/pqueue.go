// Package pqueue provides the reproduction's one priority queue: a flat
// binary min-heap of (float64 key, int32 handle) entries.
//
// Every search structure in the repository is built on it: Dijkstra's
// algorithm and the Path Update Algorithm need decrease-key (§2.2,
// §3.4.1), the NIA/IDA edge heap needs in-place key *increases* when a
// full provider's α changes (§3.3), the R-tree best-first search and
// incremental ANN need plain ordered extraction (§2.3, §3.4.2), and the
// road-network sweeps use lazy decrease-key.
//
// A handle is a small non-negative integer the caller chooses — a node
// id, a provider index, or an index into the caller's own payload slice.
// The heap stores only keys and handles, so pushing appends into a
// reusable backing array and a warm heap never allocates.
//
// A heap is either lazy or indexed:
//   - The zero value is lazy. It keeps no index, a handle may be pushed
//     any number of times, and decrease-key means pushing again and
//     skipping stale pops.
//   - NewIndexed returns an indexed heap. It also keeps a handle→position
//     index, so it answers Contains, Key, Update and Remove. Each handle
//     is enqueued at most once at a time.
//
// The sift rule is fixed: up stops on parent <= child, down takes the
// right child only when it is strictly smaller than the left and stops
// on parent <= child. Equal keys therefore pop in an order that depends
// only on the sequence of operations, which keeps every tie-break — and
// with it every path choice downstream — reproducible.
package pqueue

// Entry is one enqueued (key, handle) pair.
type Entry struct {
	Key float64
	H   int32
}

// Heap is a flat binary min-heap. The zero value is an empty lazy heap.
type Heap struct {
	a []Entry
	// pos maps handle -> position in a, -1 when absent. It is non-nil
	// exactly on indexed heaps.
	pos []int32
}

// NewIndexed returns an empty indexed heap. Its index grows with the
// largest handle pushed.
func NewIndexed() Heap { return Heap{pos: []int32{}} }

// Len returns the number of enqueued entries.
func (h *Heap) Len() int { return len(h.a) }

// Peek returns the minimum entry without removing it. The heap must not
// be empty.
func (h *Heap) Peek() Entry { return h.a[0] }

// Push enqueues handle hd with the given key. On an indexed heap hd must
// not already be enqueued.
func (h *Heap) Push(hd int32, key float64) {
	if h.pos != nil {
		for len(h.pos) <= int(hd) {
			h.pos = append(h.pos, -1)
		}
	}
	h.a = append(h.a, Entry{Key: key, H: hd})
	h.up(len(h.a) - 1)
}

// Pop removes and returns the minimum entry. The heap must not be empty.
func (h *Heap) Pop() Entry {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	if h.pos != nil {
		h.pos[top.H] = -1
	}
	if last > 0 {
		h.down(0)
	}
	return top
}

// Clear empties the heap, keeping its storage. On an indexed heap only
// the handles still enqueued are reset, so clearing costs O(Len), not
// O(handles).
func (h *Heap) Clear() {
	if h.pos != nil {
		for _, e := range h.a {
			h.pos[e.H] = -1
		}
	}
	h.a = h.a[:0]
}

// Contains reports whether handle hd is enqueued (indexed heaps only).
func (h *Heap) Contains(hd int32) bool {
	return int(hd) < len(h.pos) && h.pos[hd] >= 0
}

// Key returns the key of enqueued handle hd (indexed heaps only).
func (h *Heap) Key(hd int32) float64 { return h.a[h.pos[hd]].Key }

// Update changes enqueued handle hd's key and restores heap order in
// either direction; an equal key is a no-op (indexed heaps only).
func (h *Heap) Update(hd int32, key float64) {
	i := int(h.pos[hd])
	old := h.a[i].Key
	h.a[i].Key = key
	switch {
	case key < old:
		h.up(i)
	case key > old:
		h.down(i)
	}
}

// Remove deletes enqueued handle hd (indexed heaps only).
func (h *Heap) Remove(hd int32) {
	i := int(h.pos[hd])
	last := len(h.a) - 1
	h.a[i] = h.a[last]
	h.a = h.a[:last]
	h.pos[hd] = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

// up sifts the entry at i toward the root. It moves a hole instead of
// swapping, which visits exactly the positions a swap loop would.
func (h *Heap) up(i int) {
	a, pos := h.a, h.pos
	e := a[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := a[parent]
		if p.Key <= e.Key {
			break
		}
		a[i] = p
		if pos != nil {
			pos[p.H] = int32(i)
		}
		i = parent
	}
	a[i] = e
	if pos != nil {
		pos[e.H] = int32(i)
	}
}

// down sifts the entry at i toward the leaves.
func (h *Heap) down(i int) {
	a, pos := h.a, h.pos
	n := len(a)
	e := a[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && a[right].Key < a[child].Key {
			child = right
		}
		c := a[child]
		if e.Key <= c.Key {
			break
		}
		a[i] = c
		if pos != nil {
			pos[c.H] = int32(i)
		}
		i = child
	}
	a[i] = e
	if pos != nil {
		pos[e.H] = int32(i)
	}
}
