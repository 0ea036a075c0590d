package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// Log is an append-only record log layered on a page Store. Records are
// framed as [length u32][crc32 u32][payload] in little-endian, packed
// back to back across page boundaries; a zero length terminates the log.
//
// The store grows logGrowPages pages at a time, so it usually ends in
// zeroed pages past the last record.
//
// Recovery is scan-based: OpenLog walks the frames from page 0 and stops
// at the first frame that is torn (length runs past the end of the file)
// or corrupt (CRC mismatch), truncating the log to the last valid record
// rather than erroring. The region past the valid prefix is re-zeroed so
// a later scan cannot misparse stale bytes as a frame.
//
// A Log serializes its own access: Append, Sync, and the accessors are
// safe to call from concurrent goroutines (the HTTP handlers append from
// request goroutines), upholding the Store concurrency contract on the
// caller's behalf.
type Log struct {
	mu        sync.Mutex
	store     Store
	tail      int64 // byte offset one past the last valid record
	records   int
	truncated bool // recovery dropped a torn/corrupt tail

	// page holds a copy of page pageID as the last append wrote it
	// (pageID is InvalidPage until then), so the next append, which
	// starts on that page, reads nothing back from the store. framed is
	// the reused buffer appends frame their records in.
	page   []byte
	pageID PageID
	framed []byte
}

const (
	logFrameHeader = 8       // u32 length + u32 crc
	logMaxRecord   = 1 << 26 // 64 MB; a longer length field is treated as torn
	// logGrowPages is the step by which an append past the end extends
	// the store. Growing page by page made most appends change the file
	// size, which the fsync then has to commit too; in steps, only one
	// append in many does. The zeroed pages past the tail read as the
	// log's clean end.
	logGrowPages = 16
	// logKeepFrame is the largest framing buffer a Log keeps between
	// appends; a larger record frames in a buffer of its own.
	logKeepFrame = 64 << 10
)

// NewLog starts a fresh log on an empty store.
func NewLog(store Store) (*Log, error) {
	if store.NumPages() != 0 {
		return nil, fmt.Errorf("storage: NewLog on non-empty store (%d pages); use OpenLog", store.NumPages())
	}
	return &Log{store: store, pageID: InvalidPage}, nil
}

// OpenLog recovers a log from store, invoking fn for each valid record in
// append order. Scanning stops at the end of the valid prefix; if the
// final record is torn or corrupt it is dropped (Truncated reports this)
// and appends resume after the last valid record. A non-nil error from fn
// aborts recovery and is returned verbatim. The payload fn receives is
// valid only until fn returns. The scan reads each page once, in order.
func OpenLog(store Store, fn func(payload []byte) error) (*Log, error) {
	l := &Log{store: store, pageID: InvalidPage}
	r := &pageReader{store: store, page: make([]byte, store.PageSize()), id: InvalidPage}
	end := int64(store.NumPages()) * int64(store.PageSize())
	var hdr [logFrameHeader]byte
	var payload []byte
	for {
		if l.tail+logFrameHeader > end {
			// No room for another header; nonzero leftovers are a torn frame.
			l.truncated = r.zeroRange(l.tail, end) || l.truncated
			break
		}
		if err := r.readAt(l.tail, hdr[:]); err != nil {
			return nil, err
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if length == 0 {
			// Clean end-of-log marker. Still sweep the remainder in case a
			// torn frame left nonzero bytes beyond a zeroed header.
			l.truncated = r.zeroRange(l.tail+logFrameHeader, end) || l.truncated
			break
		}
		if length > logMaxRecord || l.tail+logFrameHeader+length > end {
			l.truncated = true
			r.zeroRange(l.tail, end)
			break
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if err := r.readAt(l.tail+logFrameHeader, payload); err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
			l.truncated = true
			r.zeroRange(l.tail, end)
			break
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return nil, err
			}
		}
		l.records++
		l.tail += logFrameHeader + length
	}
	return l, nil
}

// Append frames payload, writes it at the log tail, and syncs the store
// so the record survives a crash once Append returns.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("storage: empty log record")
	}
	if len(payload) > logMaxRecord {
		return fmt.Errorf("storage: log record of %d bytes exceeds max %d", len(payload), logMaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := logFrameHeader + len(payload)
	if cap(l.framed) < n {
		l.framed = make([]byte, n)
	}
	framed := l.framed[:n]
	if n > logKeepFrame {
		l.framed = nil // a rare large record keeps no buffer alive
	}
	binary.LittleEndian.PutUint32(framed[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(framed[4:8], crc32.ChecksumIEEE(payload))
	copy(framed[logFrameHeader:], payload)
	if err := l.writeAt(l.tail, framed); err != nil {
		return err
	}
	if err := l.store.Sync(); err != nil {
		return err
	}
	l.records++
	l.tail += int64(len(framed))
	return nil
}

// Records returns the number of valid records in the log (recovered plus
// appended).
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Size returns the log's valid length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// Truncated reports whether recovery dropped a torn or corrupt tail.
func (l *Log) Truncated() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Close closes the underlying store.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.store.Close()
}

// pageReader serves OpenLog's forward scan through one page buffer: it
// keeps the last page it read, so consecutive frames on a page, and the
// sweep past the log's end, read no page twice.
type pageReader struct {
	store Store
	page  []byte
	id    PageID // the page held in page, or InvalidPage
}

// load makes page id the buffered one.
func (r *pageReader) load(id PageID) error {
	if r.id == id {
		return nil
	}
	r.id = InvalidPage
	if err := r.store.Read(id, r.page); err != nil {
		return err
	}
	r.id = id
	return nil
}

// readAt fills buf from the byte range starting at off, crossing page
// boundaries as needed.
func (r *pageReader) readAt(off int64, buf []byte) error {
	ps := int64(len(r.page))
	for len(buf) > 0 {
		if err := r.load(PageID(off / ps)); err != nil {
			return err
		}
		n := copy(buf, r.page[off%ps:])
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// zeroRange zeroes [from, to) and reports whether any nonzero byte was
// overwritten (i.e. stale frame bytes were present).
func (r *pageReader) zeroRange(from, to int64) bool {
	ps := int64(len(r.page))
	dirty := false
	for off := from; off < to; {
		id := PageID(off / ps)
		at := int(off % ps)
		n := int(min(ps-int64(at), to-off))
		if err := r.load(id); err != nil {
			return dirty
		}
		changed := false
		for i := at; i < at+n; i++ {
			if r.page[i] != 0 {
				r.page[i] = 0
				changed = true
			}
		}
		if changed {
			dirty = true
			if err := r.store.Write(id, r.page); err != nil {
				return dirty
			}
		}
		off += int64(n)
	}
	return dirty
}

// writeAt writes data at byte offset off, which is the log's tail,
// page by page through the log's page copy. A page the last append
// wrote is already in the copy, and a page that starts at or past the
// tail holds only zeros (the log's clean end), so neither is read from
// the store: in steady state an append reads nothing. A write past the
// current end first extends the store by logGrowPages pages (or to the
// write's end, if that is further).
func (l *Log) writeAt(off int64, data []byte) error {
	ps := int64(l.store.PageSize())
	needPages := int((off + int64(len(data)) + ps - 1) / ps)
	if n := l.store.NumPages(); n < needPages {
		for range max(needPages-n, logGrowPages) {
			if _, err := l.store.Alloc(); err != nil {
				return err
			}
		}
	}
	if int64(len(l.page)) != ps {
		l.page, l.pageID = make([]byte, ps), InvalidPage
	}
	for len(data) > 0 {
		id := PageID(off / ps)
		at := int(off % ps)
		cached := id == l.pageID
		l.pageID = InvalidPage // until the page is written back
		if !cached {
			if int64(id)*ps >= l.tail {
				clear(l.page)
			} else if err := l.store.Read(id, l.page); err != nil {
				return err
			}
		}
		n := copy(l.page[at:], data)
		if err := l.store.Write(id, l.page); err != nil {
			return err
		}
		l.pageID = id
		data = data[n:]
		off += int64(n)
	}
	return nil
}

// ErrCorruptSnapshot is returned by ReadSnapshot when the file fails its
// integrity check; callers fall back to a full WAL replay.
var ErrCorruptSnapshot = errors.New("storage: corrupt snapshot")

// snapshotMagic marks snapshot files: "CCSN" little-endian.
const snapshotMagic = 0x4e534343

// WriteSnapshot atomically writes payload to path with an integrity
// header ([magic u32][length u32][crc32 u32]): the bytes go to a temp
// file in the same directory, are fsynced, then renamed over path.
func WriteSnapshot(path string, payload []byte) error {
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:4], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("storage: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(hdr); err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("storage: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("storage: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("storage: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("storage: snapshot rename: %w", err)
	}
	return nil
}

// ReadSnapshot reads a snapshot written by WriteSnapshot, verifying the
// magic, length, and checksum. A failed check returns ErrCorruptSnapshot.
func ReadSnapshot(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 12 || binary.LittleEndian.Uint32(raw[0:4]) != snapshotMagic {
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorruptSnapshot, path)
	}
	length := binary.LittleEndian.Uint32(raw[4:8])
	payload := raw[12:]
	if int(length) != len(payload) {
		return nil, fmt.Errorf("%w: %s: length %d != payload %d", ErrCorruptSnapshot, path, length, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[8:12]) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorruptSnapshot, path)
	}
	return payload, nil
}
