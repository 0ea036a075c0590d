package storage

import (
	"container/list"
	"fmt"
	"time"
)

// Stats aggregates buffer manager activity. Faults drive the paper's
// simulated I/O time (10 ms each, §5.1).
type Stats struct {
	Hits           int // logical reads served from the buffer
	Faults         int // logical reads that required a physical read
	PhysicalReads  int // pages fetched from the store
	PhysicalWrites int // pages written to the store
}

// IOTime returns the simulated I/O time under the paper's cost model.
func (s Stats) IOTime() time.Duration {
	return time.Duration(s.Faults) * CostPerFault
}

// LogicalReads returns the total number of page requests.
func (s Stats) LogicalReads() int { return s.Hits + s.Faults }

// Buffer is an LRU buffer manager over a Store. Writes are write-through:
// the cached frame and the store are updated together, so eviction never
// needs to flush.
//
// Frames returned by Read alias the internal cache and must be treated as
// read-only; they remain valid until the page is evicted.
type Buffer struct {
	store  Store
	frames int
	lru    *list.List // front = most recently used; values are *frame
	byID   map[PageID]*list.Element
	stats  Stats
}

type frame struct {
	id   PageID
	data []byte
}

// NewBuffer wraps store with an LRU buffer of the given number of frames
// (minimum 1).
func NewBuffer(store Store, frames int) *Buffer {
	if frames < 1 {
		frames = 1
	}
	return &Buffer{
		store:  store,
		frames: frames,
		lru:    list.New(),
		byID:   make(map[PageID]*list.Element),
	}
}

// Store returns the underlying page store.
func (b *Buffer) Store() Store { return b.store }

// Frames returns the buffer capacity in pages.
func (b *Buffer) Frames() int { return b.frames }

// Resident returns the number of pages currently cached in the buffer.
func (b *Buffer) Resident() int { return b.lru.Len() }

// Stats returns a snapshot of the activity counters.
func (b *Buffer) Stats() Stats { return b.stats }

// ResetStats zeroes the activity counters (the cache content is kept).
func (b *Buffer) ResetStats() { b.stats = Stats{} }

// DropCache evicts every cached frame, so that subsequent reads fault.
// The experiment harness calls this between runs for cold-cache starts.
func (b *Buffer) DropCache() {
	b.lru.Init()
	b.byID = make(map[PageID]*list.Element)
}

// Read returns the content of page id, serving it from the buffer when
// cached and reading through (with a fault) otherwise.
func (b *Buffer) Read(id PageID) ([]byte, error) {
	if el, ok := b.byID[id]; ok {
		b.lru.MoveToFront(el)
		b.stats.Hits++
		return el.Value.(*frame).data, nil
	}
	b.stats.Faults++
	b.stats.PhysicalReads++
	data := make([]byte, b.store.PageSize())
	if err := b.store.Read(id, data); err != nil {
		return nil, err
	}
	b.insert(id, data)
	return data, nil
}

// Write stores data as the new content of page id (write-through).
func (b *Buffer) Write(id PageID, data []byte) error {
	if len(data) > b.store.PageSize() {
		return fmt.Errorf("storage: buffered write of %d bytes exceeds page size %d",
			len(data), b.store.PageSize())
	}
	if err := b.store.Write(id, data); err != nil {
		return err
	}
	b.stats.PhysicalWrites++
	page := make([]byte, b.store.PageSize())
	copy(page, data)
	if el, ok := b.byID[id]; ok {
		el.Value.(*frame).data = page
		b.lru.MoveToFront(el)
		return nil
	}
	b.insert(id, page)
	return nil
}

// Alloc allocates a new page in the underlying store.
func (b *Buffer) Alloc() (PageID, error) { return b.store.Alloc() }

func (b *Buffer) insert(id PageID, data []byte) {
	for b.lru.Len() >= b.frames {
		back := b.lru.Back()
		b.lru.Remove(back)
		delete(b.byID, back.Value.(*frame).id)
	}
	b.byID[id] = b.lru.PushFront(&frame{id: id, data: data})
}
