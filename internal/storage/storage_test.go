package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"
)

func testStores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "pages.db"), 128)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return map[string]Store{
		"mem":  NewMemStore(128),
		"file": fs,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			id1, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			id2, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if id1 == id2 {
				t.Fatal("Alloc returned duplicate IDs")
			}
			if s.NumPages() != 2 {
				t.Fatalf("NumPages = %d want 2", s.NumPages())
			}
			want := []byte("hello pages")
			if err := s.Write(id2, want); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, s.PageSize())
			if err := s.Read(id2, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf[:len(want)], want) {
				t.Fatalf("read back %q want %q", buf[:len(want)], want)
			}
			// Rest of the page must be zero.
			for _, b := range buf[len(want):] {
				if b != 0 {
					t.Fatal("page tail not zeroed")
				}
			}
			// A short rewrite must zero the previous content's tail.
			if err := s.Write(id2, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := s.Read(id2, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != 'x' || buf[1] != 0 {
				t.Fatal("rewrite did not zero the page tail")
			}
		})
	}
}

func TestStoreErrors(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, s.PageSize())
			if err := s.Read(99, buf); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("read out of range: %v", err)
			}
			if err := s.Write(99, nil); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("write out of range: %v", err)
			}
			id, _ := s.Alloc()
			if err := s.Write(id, make([]byte, s.PageSize()+1)); err == nil {
				t.Fatal("oversized write must fail")
			}
		})
	}
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fs.Alloc()
	if err := fs.Write(id, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != 1 {
		t.Fatalf("NumPages after reopen = %d want 1", re.NumPages())
	}
	buf := make([]byte, 64)
	if err := re.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:9]) != "persisted" {
		t.Fatalf("lost data across reopen: %q", buf[:9])
	}
}

func TestBufferHitAndFault(t *testing.T) {
	s := NewMemStore(64)
	id, _ := s.Alloc()
	s.Write(id, []byte("v"))
	b := NewBuffer(s, 4)
	if _, err := b.Read(id); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(id); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Faults != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v want 1 fault, 1 hit", st)
	}
	if st.LogicalReads() != 2 {
		t.Fatalf("LogicalReads = %d", st.LogicalReads())
	}
	if st.IOTime() != 10*time.Millisecond {
		t.Fatalf("IOTime = %v want 10ms", st.IOTime())
	}
}

func TestBufferLRUEviction(t *testing.T) {
	s := NewMemStore(64)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := s.Alloc()
		ids = append(ids, id)
	}
	b := NewBuffer(s, 2)
	b.Read(ids[0]) // cache: 0
	b.Read(ids[1]) // cache: 1,0
	b.Read(ids[0]) // cache: 0,1 (0 refreshed)
	b.Read(ids[2]) // evicts 1 -> cache: 2,0
	b.ResetStats()
	b.Read(ids[0]) // hit
	if b.Stats().Hits != 1 || b.Stats().Faults != 0 {
		t.Fatalf("expected hit on refreshed page, stats %+v", b.Stats())
	}
	b.Read(ids[1]) // fault (was evicted)
	if b.Stats().Faults != 1 {
		t.Fatalf("expected fault on evicted page, stats %+v", b.Stats())
	}
}

func TestBufferWriteThrough(t *testing.T) {
	s := NewMemStore(64)
	id, _ := s.Alloc()
	b := NewBuffer(s, 2)
	if err := b.Write(id, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	// The store must already have the data (write-through).
	raw := make([]byte, 64)
	s.Read(id, raw)
	if string(raw[:3]) != "abc" {
		t.Fatal("write-through did not reach the store")
	}
	// And the read must be a buffer hit.
	b.ResetStats()
	got, err := b.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:3]) != "abc" || b.Stats().Hits != 1 {
		t.Fatalf("cached read after write: %+v", b.Stats())
	}
}

func TestBufferDropCache(t *testing.T) {
	s := NewMemStore(64)
	id, _ := s.Alloc()
	b := NewBuffer(s, 2)
	b.Read(id)
	b.DropCache()
	b.ResetStats()
	b.Read(id)
	if b.Stats().Faults != 1 {
		t.Fatalf("DropCache must force a fault, stats %+v", b.Stats())
	}
}

func TestBufferNeverExceedsCapacity(t *testing.T) {
	s := NewMemStore(32)
	for i := 0; i < 100; i++ {
		s.Alloc()
	}
	const frames = 7
	b := NewBuffer(s, frames)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if _, err := b.Read(PageID(rng.Intn(100))); err != nil {
			t.Fatal(err)
		}
		if b.lru.Len() > frames || len(b.byID) > frames {
			t.Fatalf("buffer grew past capacity: %d frames", b.lru.Len())
		}
	}
	st := b.Stats()
	if st.Hits+st.Faults != 1000 {
		t.Fatalf("lost reads: %+v", st)
	}
}

// Sequential scans larger than the buffer must fault every time (LRU's
// classic worst case) — this pins down the replacement policy.
func TestBufferSequentialScanWorstCase(t *testing.T) {
	s := NewMemStore(32)
	for i := 0; i < 10; i++ {
		s.Alloc()
	}
	b := NewBuffer(s, 5)
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			b.Read(PageID(i))
		}
	}
	if st := b.Stats(); st.Hits != 0 || st.Faults != 30 {
		t.Fatalf("LRU sequential scan: %+v, want 30 faults 0 hits", st)
	}
}

func TestBufferReadError(t *testing.T) {
	s := NewMemStore(32)
	b := NewBuffer(s, 2)
	if _, err := b.Read(5); err == nil {
		t.Fatal("reading an unallocated page must fail")
	}
}
