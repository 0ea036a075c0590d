package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestOpenFileStoreValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.db")
	if _, err := CreateFileStore(path, 0); err == nil {
		t.Fatal("CreateFileStore must reject pageSize 0")
	}
	if _, err := CreateFileStore(path, -8); err == nil {
		t.Fatal("CreateFileStore must reject negative pageSize")
	}
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	fs.Alloc()
	fs.Close()
	if _, err := OpenFileStore(path, 0); err == nil {
		t.Fatal("OpenFileStore must reject pageSize 0")
	}
	// A trailing partial page means corruption or a wrong page size:
	// opening must fail rather than silently dropping the tail.
	if err := os.Truncate(path, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, 64); err == nil {
		t.Fatal("OpenFileStore must reject a size that is not a multiple of pageSize")
	}
	// Same file opened with a page size that divides it is fine.
	if err := os.Truncate(path, 64); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path, 32)
	if err != nil {
		t.Fatalf("aligned open failed: %v", err)
	}
	if re.NumPages() != 2 {
		t.Fatalf("NumPages = %d want 2", re.NumPages())
	}
	re.Close()
}

func TestReadShortBuffer(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.Alloc()
			short := make([]byte, s.PageSize()-1)
			if err := s.Read(id, short); !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("short-buffer read: got %v, want ErrShortBuffer", err)
			}
			// Exactly page-sized and longer buffers are fine.
			for _, n := range []int{s.PageSize(), s.PageSize() + 7} {
				if err := s.Read(id, make([]byte, n)); err != nil {
					t.Fatalf("read with %d-byte buffer: %v", n, err)
				}
			}
		})
	}
}

// TestStoreConcurrentReads enforces the documented half of the Store
// concurrency contract: concurrent Reads (same and distinct pages) are
// safe once no Alloc/Write runs. The race detector is the assertion.
func TestStoreConcurrentReads(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 8; i++ {
				id, _ := s.Alloc()
				if err := s.Write(id, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, s.PageSize())
					for i := 0; i < 100; i++ {
						id := PageID((g + i) % 8)
						if err := s.Read(id, buf); err != nil {
							t.Error(err)
							return
						}
						if buf[0] != byte(id) {
							t.Errorf("page %d read %d", id, buf[0])
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestLogConcurrentAppend enforces the other half of the contract: the
// Log holds its own lock, so handler-goroutine appends interleave safely
// over a Store whose Alloc/Write are not goroutine-safe.
func TestLogConcurrentAppend(t *testing.T) {
	s := NewMemStore(64)
	l, err := NewLog(s)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Records() != goroutines*per {
		t.Fatalf("Records = %d want %d", l.Records(), goroutines*per)
	}
	// Every record must survive a rescan intact.
	seen := map[string]bool{}
	if _, err := OpenLog(s, func(p []byte) error {
		seen[string(p)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != goroutines*per {
		t.Fatalf("rescan found %d records want %d", len(seen), goroutines*per)
	}
}

func TestLogRoundTrip(t *testing.T) {
	pageSizes := []int{32, 64, DefaultPageSize}
	for _, ps := range pageSizes {
		t.Run(fmt.Sprintf("page%d", ps), func(t *testing.T) {
			s := NewMemStore(ps)
			l, err := NewLog(s)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]byte
			for i := 0; i < 50; i++ {
				// Lengths from tiny to multi-page exercise frame packing
				// across page boundaries.
				rec := bytes.Repeat([]byte{byte(i + 1)}, 1+(i*17)%(3*ps))
				want = append(want, rec)
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			var got [][]byte
			re, err := OpenLog(s, func(p []byte) error {
				got = append(got, append([]byte(nil), p...))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if re.Truncated() {
				t.Fatal("clean log reported truncated")
			}
			if len(got) != len(want) {
				t.Fatalf("recovered %d records want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d mismatch", i)
				}
			}
			// The log stays appendable after recovery.
			if err := re.Append([]byte("after")); err != nil {
				t.Fatal(err)
			}
			if re.Records() != len(want)+1 {
				t.Fatalf("Records = %d", re.Records())
			}
		})
	}
}

func TestLogEmptyAndErrors(t *testing.T) {
	s := NewMemStore(32)
	l, err := NewLog(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(nil); err == nil {
		t.Fatal("empty record must be rejected (zero length terminates the log)")
	}
	if _, err := NewLog(s2withPages(t)); err == nil {
		t.Fatal("NewLog must reject a non-empty store")
	}
	n := 0
	if _, err := OpenLog(s, func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("empty log replayed records")
	}
}

func s2withPages(t *testing.T) Store {
	t.Helper()
	s := NewMemStore(32)
	s.Alloc()
	return s
}

// TestLogCrashRecovery simulates the crash path end to end on a real
// file: append records, drop the handle without closing cleanly, reopen,
// and verify the contents.
func TestLogCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close. Append already synced every record, so a reopen
	// through a fresh descriptor must see all of them.
	var got []string
	fs2, err := OpenFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	re, err := OpenLog(fs2, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(got) != 20 || got[0] != "record-00" || got[19] != "record-19" {
		t.Fatalf("recovered %d records: %v", len(got), got)
	}
	if re.Truncated() {
		t.Fatal("clean crash recovery reported truncated")
	}
	fs.Close()
}

// TestLogTornFinalRecord covers the torn-tail cases: recovery must
// truncate to the last valid record rather than erroring, and appending
// afterwards must produce a log that scans cleanly. The store grows in
// steps of logGrowPages, so the corruptions are placed relative to the
// log's valid length (size), not the file's end.
func TestLogTornFinalRecord(t *testing.T) {
	corruptions := map[string]func(t *testing.T, path string, size int64){
		// The file ends mid-record: length field promises more bytes
		// than the file holds (file cut to the page boundary 64 bytes
		// before the one after the log's end, so the store itself
		// opens).
		"torn-length": func(t *testing.T, path string, size int64) {
			if err := os.Truncate(path, (size+63)/64*64-64); err != nil {
				t.Fatal(err)
			}
		},
		// A payload byte flipped: CRC mismatch on the final record.
		"crc-flip": func(t *testing.T, path string, size int64) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a byte near the end of the last record's payload.
			raw[size-70] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// A crash during the final append, into pages the log had
		// already grown into: the frame's header and half its payload
		// reached the file, the rest did not. The file size does not
		// change, so only the CRC can tell.
		"torn-in-preallocated": func(t *testing.T, path string, size int64) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(raw)) < size+logFrameHeader {
				t.Fatalf("file of %d bytes has no preallocated room past the log's %d", len(raw), size)
			}
			last := size - logFrameHeader - 100
			for i := last + logFrameHeader + 50; i < size; i++ {
				raw[i] = 0
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			fs, err := CreateFileStore(path, 64)
			if err != nil {
				t.Fatal(err)
			}
			l, err := NewLog(fs)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				// 100-byte records span pages, so a 64-byte truncation
				// tears the final record mid-payload.
				rec := bytes.Repeat([]byte{byte('a' + i)}, 100)
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			size := l.Size()
			fs.Close()
			corrupt(t, path, size)

			fs2, err := OpenFileStore(path, 64)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			re, err := OpenLog(fs2, func(p []byte) error {
				got = append(got, string(p[:1]))
				return nil
			})
			if err != nil {
				t.Fatalf("recovery must not error on a torn tail: %v", err)
			}
			if !re.Truncated() {
				t.Fatal("recovery did not report the torn tail")
			}
			if len(got) != 4 {
				t.Fatalf("recovered %d records want 4 (prefix before the torn record)", len(got))
			}
			for i, p := range got {
				if p != string(rune('a'+i)) {
					t.Fatalf("record %d = %q", i, p)
				}
			}
			// Appending after recovery overwrites the torn region; a
			// rescan sees the valid prefix plus the new record only.
			if err := re.Append([]byte("replacement")); err != nil {
				t.Fatal(err)
			}
			re.Close()

			fs3, err := OpenFileStore(path, 64)
			if err != nil {
				t.Fatal(err)
			}
			var again []string
			re2, err := OpenLog(fs3, func(p []byte) error {
				again = append(again, string(p))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			if re2.Truncated() {
				t.Fatal("rescan after repair reported truncated")
			}
			if len(again) != 5 || again[4] != "replacement" {
				t.Fatalf("rescan after repair: %v", again)
			}
		})
	}
}

// TestLogPreallocatedTail: the store grows logGrowPages pages at a
// time, and the zeroed pages past the last record are the log's clean
// end. A reopen must recover every record without reporting a
// truncation, and appends must keep growing the store in whole steps.
func TestLogPreallocatedTail(t *testing.T) {
	const ps = 64
	path := filepath.Join(t.TempDir(), "wal")
	fs, err := CreateFileStore(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 100)); err != nil {
			t.Fatal(err)
		}
		need := (l.Size() + ps - 1) / ps
		if n := int64(fs.NumPages()); n%logGrowPages != 0 || n < need || n >= need+logGrowPages {
			t.Fatalf("after %d appends the store has %d pages for a %d-page log, want the next multiple of %d",
				i+1, n, need, logGrowPages)
		}
	}
	if int64(fs.NumPages())*ps == l.Size() {
		t.Fatal("the log fills its store exactly; the test needs a preallocated tail")
	}
	size := l.Size()
	fs.Close()

	fs2, err := OpenFileStore(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	n := 0
	re, err := OpenLog(fs2, func(p []byte) error {
		if len(p) != 100 || p[0] != byte('a'+n) {
			t.Fatalf("record %d: %q", n, p)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if re.Truncated() {
		t.Fatal("a clean preallocated tail reported a truncation")
	}
	if n != 30 || re.Size() != size {
		t.Fatalf("recovered %d records, %d bytes; wrote 30, %d bytes", n, re.Size(), size)
	}
}

// readCounter is a Store that counts reads per page.
type readCounter struct {
	Store
	reads map[PageID]int
}

func (r *readCounter) Read(id PageID, buf []byte) error {
	r.reads[id]++
	return r.Store.Read(id, buf)
}

// TestOpenLogReadsEachPageOnce: recovery is one forward scan through
// one page buffer, so frames sharing a page, frames spanning pages and
// the sweep of the zeroed tail read no page twice, torn tail or not.
func TestOpenLogReadsEachPageOnce(t *testing.T) {
	for _, torn := range []bool{false, true} {
		s := NewMemStore(64)
		l, err := NewLog(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			// 1 to 150 bytes: several frames per page, and frames
			// spanning pages.
			if err := l.Append(bytes.Repeat([]byte{byte(i + 1)}, 1+(i*37)%150)); err != nil {
				t.Fatal(err)
			}
		}
		if torn {
			// A stray nonzero byte past the clean end marker.
			s.pages[len(s.pages)-1][7] = 0xff
		}
		rc := &readCounter{Store: s, reads: map[PageID]int{}}
		re, err := OpenLog(rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if re.Records() != 40 || re.Truncated() != torn {
			t.Fatalf("torn %v: recovered %d records, truncated %v", torn, re.Records(), re.Truncated())
		}
		for id := PageID(0); int(id) < s.NumPages(); id++ {
			if n := rc.reads[id]; n != 1 {
				t.Fatalf("torn %v: page %d read %d times, want once", torn, id, n)
			}
		}
	}
}

// TestLogAppendReadsNothing: an append keeps the tail page it wrote,
// and a page past the log's end is known to hold zeros, so steady-state
// appends read no page back from the store, whether a record fits in
// the tail page, spans pages or starts on a page boundary. Only the
// first append after OpenLog reads the tail page once. The log still
// recovers every record.
func TestLogAppendReadsNothing(t *testing.T) {
	s := NewMemStore(64)
	rc := &readCounter{Store: s, reads: map[PageID]int{}}
	l, err := NewLog(rc)
	if err != nil {
		t.Fatal(err)
	}
	reads := func() int {
		n := 0
		for _, r := range rc.reads {
			n += r
		}
		return n
	}
	var want [][]byte
	appendN := func(l *Log, k int) {
		for i := 0; i < k; i++ {
			// 1 to 150 bytes: several frames per page, frames spanning
			// pages, and (56 bytes framed to 64) frames ending on a
			// page boundary.
			size := 1 + (len(want)*37)%150
			if len(want)%7 == 0 {
				size = 56
			}
			p := bytes.Repeat([]byte{byte(len(want) + 1)}, size)
			if err := l.Append(p); err != nil {
				t.Fatal(err)
			}
			want = append(want, p)
		}
	}
	appendN(l, 60)
	if n := reads(); n != 0 {
		t.Fatalf("60 appends to a fresh log read %d pages, want 0", n)
	}

	re, err := OpenLog(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	clear(rc.reads)
	appendN(re, 60)
	if n := reads(); n > 1 {
		t.Fatalf("60 appends after OpenLog read %d pages, want at most 1 (the tail page once)", n)
	}

	var got [][]byte
	if _, err := OpenLog(s, func(p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, appended %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %d bytes %x…, want %d bytes %x…", i, len(got[i]), got[i][:1], len(want[i]), want[i][:1])
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	payload := []byte(`{"live":[1,2,3],"cost":42.5}`)
	if err := WriteSnapshot(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("snapshot round trip: %q", got)
	}
	// Overwrite is atomic: the new content fully replaces the old.
	if err := WriteSnapshot(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadSnapshot(path); string(got) != "v2" {
		t.Fatalf("overwrite: %q", got)
	}
}

func TestSnapshotCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := WriteSnapshot(path, []byte("payload bytes here")); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	for name, mangle := range map[string]func([]byte) []byte{
		"flip-payload": func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"truncate":     func(b []byte) []byte { return b[:len(b)-4] },
		"bad-magic":    func(b []byte) []byte { b[0] ^= 1; return b },
		"too-short":    func(b []byte) []byte { return b[:5] },
	} {
		t.Run(name, func(t *testing.T) {
			bad := mangle(append([]byte(nil), raw...))
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("got %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}
