package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecover writes a few records to a log, then crashes it: the
// fuzzer overwrites chosen bytes of the page image and truncates it.
// Recovery from any such image must not panic, must yield a prefix of
// the written records, must yield the same records when run again, and
// must leave a log whose next append reads back after another reopen.
func FuzzWALRecover(f *testing.F) {
	f.Add(uint8(6), []byte{}, uint16(0xffff))
	f.Add(uint8(9), []byte{0x10, 0x00, 0xff}, uint16(0xffff)) // a length byte
	f.Add(uint8(9), []byte{0x30, 0x00, 0x01}, uint16(0xffff)) // a payload byte
	f.Add(uint8(12), []byte{}, uint16(300))                   // torn mid-record
	f.Fuzz(func(t *testing.T, nrec uint8, edits []byte, keep uint16) {
		const pageSize = 64
		s := NewMemStore(pageSize)
		l, err := NewLog(s)
		if err != nil {
			t.Fatal(err)
		}
		var written [][]byte
		for i := 0; i < int(nrec%16)+1; i++ {
			// 1 to 150 bytes: records share pages and span them.
			rec := bytes.Repeat([]byte{byte(i + 1)}, 1+(i*37+int(nrec))%150)
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
			written = append(written, rec)
		}

		// The crash image: each 3-byte edit is a little-endian offset
		// and the byte to store there; then the image is cut to keep
		// bytes, and the cut page's tail reads as zeros.
		var img []byte
		for _, p := range s.pages {
			img = append(img, p...)
		}
		for i := 0; i+3 <= len(edits); i += 3 {
			img[int(binary.LittleEndian.Uint16(edits[i:]))%len(img)] = edits[i+2]
		}
		img = img[:min(len(img), int(keep))]
		crashed := NewMemStore(pageSize)
		for off := 0; off < len(img); off += pageSize {
			id, err := crashed.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := crashed.Write(id, img[off:min(off+pageSize, len(img))]); err != nil {
				t.Fatal(err)
			}
		}

		scan := func() (*Log, [][]byte) {
			var got [][]byte
			re, err := OpenLog(crashed, func(p []byte) error {
				got = append(got, append([]byte(nil), p...))
				return nil
			})
			if err != nil {
				t.Fatalf("recovery errored: %v", err)
			}
			if re.Records() != len(got) {
				t.Fatalf("Records() = %d after replaying %d", re.Records(), len(got))
			}
			return re, got
		}
		_, got := scan()
		if len(got) > len(written) {
			t.Fatalf("recovered %d records, only %d written", len(got), len(written))
		}
		for i := range got {
			if !bytes.Equal(got[i], written[i]) {
				t.Fatalf("record %d: recovered %q, wrote %q", i, got[i], written[i])
			}
		}

		re, again := scan()
		if re.Truncated() || len(again) != len(got) {
			t.Fatalf("second recovery: %d records (truncated %v), first gave %d", len(again), re.Truncated(), len(got))
		}
		for i := range again {
			if !bytes.Equal(again[i], got[i]) {
				t.Fatalf("second recovery: record %d differs", i)
			}
		}

		extra := []byte("appended after recovery")
		if err := re.Append(extra); err != nil {
			t.Fatal(err)
		}
		re, third := scan()
		if re.Truncated() || len(third) != len(got)+1 || !bytes.Equal(third[len(got)], extra) {
			t.Fatalf("after append: %d records (truncated %v), want %d ending in the appended one",
				len(third), re.Truncated(), len(got)+1)
		}
	})
}

// FuzzSnapshot: ReadSnapshot on arbitrary file bytes returns the payload
// or ErrCorruptSnapshot, never panics; WriteSnapshot then ReadSnapshot
// round-trips any payload.
func FuzzSnapshot(f *testing.F) {
	valid := filepath.Join(f.TempDir(), "valid.snap")
	if err := WriteSnapshot(valid, []byte(`{"events":3,"cost":12.5}`)); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, []byte(`{"events":3,"cost":12.5}`))
	f.Add(raw[:5], []byte{})
	f.Add([]byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, file, payload []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.snap")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(path)
		switch {
		case err == nil:
			if !bytes.Equal(got, file[12:]) {
				t.Fatalf("accepted snapshot returned %d bytes, file holds %d past the header", len(got), len(file)-12)
			}
		case !errors.Is(err, ErrCorruptSnapshot):
			t.Fatalf("ReadSnapshot: %v, want a payload or ErrCorruptSnapshot", err)
		}

		out := filepath.Join(dir, "out.snap")
		if err := WriteSnapshot(out, payload); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadSnapshot(out); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d bytes: got %d bytes, %v", len(payload), len(got), err)
		}
	})
}
