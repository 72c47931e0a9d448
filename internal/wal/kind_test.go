package wal

// Record-kind framing tests: records of the one kind round-trip through
// append/reopen/replay and Append refuses any other; segments of the
// formats that preceded this one are refused by name and left alone, a
// header-only one included; an unknown kind value truncates like
// corruption; and the CRC genuinely covers the kind byte.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func TestRecordKindRoundTrip(t *testing.T) {
	opts := testOpts(t, SyncAlways)
	l := mustOpen(t, opts)
	kinds := []Kind{KindInsert, KindInsert, KindInsert}
	for i, k := range kinds {
		// A kind the reader would truncate at is refused before it is
		// framed, and takes no sequence number.
		if _, err := l.Append(Kind(1+i), []byte("never")); err == nil {
			t.Fatalf("Append of kind %d accepted", 1+i)
		}
		seq, err := l.Append(k, []byte{byte('a' + i)})
		if err != nil {
			t.Fatalf("Append kind %d: %v", k, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, opts)
	defer l2.Close()
	var got []Kind
	err := l2.Replay(0, nil, func(rec Record) error {
		got = append(got, rec.Kind)
		if want := byte('a' + len(got) - 1); len(rec.Payload) != 1 || rec.Payload[0] != want {
			t.Errorf("seq %d payload %q, want %q", rec.Seq, rec.Payload, want)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(kinds) {
		t.Fatalf("replayed %d records, want %d", len(got), len(kinds))
	}
	for i, k := range kinds {
		if got[i] != k {
			t.Errorf("record %d replayed as kind %d, want %d", i+1, got[i], k)
		}
	}
}

// TestForeignFormatSegments: a segment of another RDFWAL format is
// somebody's data — Open refuses it by name and changes nothing — while a
// header that is no RDFWAL header at all is what a crash during segment
// creation leaves, and is dropped with everything after it.
func TestForeignFormatSegments(t *testing.T) {
	// A v1 frame carried no kind byte: CRC over seq + payload only.
	body := append(binary.LittleEndian.AppendUint64(nil, 1), "old-one"...)
	v1 := append([]byte("RDFWAL1\n"), make([]byte, segHeaderSize-len(segMagic))...)
	v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(body)))
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.Checksum(body, castagnoli))
	v1 = append(v1, body...)
	// A v2 or v3 segment is a v4 one but for the magic and its kinds.
	v2 := appendRecord(encodeSegHeader(11, 0xbeef), 1, Kind(1), []byte("old-del"))
	copy(v2, "RDFWAL2\n")
	v3 := appendRecord(encodeSegHeader(11, 0xbeef), 1, Kind(2), []byte("\x00\x00\x00\x00old-overwrite"))
	copy(v3, "RDFWAL3\n")
	garbage := appendRecord(encodeSegHeader(0, 0), 1, KindInsert, []byte("lost"))
	copy(garbage, "NOTAWAL!")
	for _, tc := range []struct {
		name, format string // format "": not an RDFWAL header, dropped
		img          []byte
	}{
		{"v1", "RDFWAL1", v1},
		{"v2", "RDFWAL2", v2},
		{"v3", "RDFWAL3", v3},
		{"newer", "RDFWAL5", append([]byte("RDFWAL5\n"), v2[len(segMagic):]...)},
		{"garbage", "", garbage},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			first, second := filepath.Join(dir, segName(1)), filepath.Join(dir, segName(2))
			later := appendRecord(encodeSegHeader(0, 0), 2, KindInsert, []byte("later"))
			for path, img := range map[string][]byte{first: tc.img, second: later} {
				if err := os.WriteFile(path, img, 0o644); err != nil {
					t.Fatalf("write segment: %v", err)
				}
			}
			l, err := Open(Options{Dir: dir, Sync: SyncAlways})
			if tc.format == "" {
				if err != nil {
					t.Fatalf("Open over a torn header: %v", err)
				}
				defer l.Close()
				if names, _ := OS().List(dir); len(names) != 1 || l.LastSeq() != 0 {
					t.Fatalf("after Open: files %v, LastSeq %d; want the torn segment and its successor gone", names, l.LastSeq())
				}
				if seq := mustAppend(t, l, "fresh"); seq != 1 {
					t.Fatalf("append after the drop seq = %d, want 1", seq)
				}
				return
			}
			want := "wal: segment " + segName(1) + " is " + tc.format + "; this build reads RDFWAL4 only"
			if err == nil || err.Error() != want {
				t.Fatalf("Open = %v, want the error %q", err, want)
			}
			for path, img := range map[string][]byte{first: tc.img, second: later} {
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, img) {
					t.Errorf("%s changed under a refused Open (read error %v)", filepath.Base(path), err)
				}
			}
			if names, _ := OS().List(dir); len(names) != 2 {
				t.Errorf("directory holds %v after a refused Open, want the two segments", names)
			}
		})
	}

	// A header-only RDFWAL3 segment, what a clean shutdown of the build
	// before this format left, holds no record, but it is that format's
	// all the same: refused by name, and left as it is.
	t.Run("v3-header-only", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(7))
		hdr := encodeSegHeader(11, 0xbeef)
		copy(hdr, "RDFWAL3\n")
		if err := os.WriteFile(path, hdr, 0o644); err != nil {
			t.Fatalf("write segment: %v", err)
		}
		_, err := Open(Options{Dir: dir, Sync: SyncAlways})
		want := "wal: segment " + segName(7) + " is RDFWAL3; this build reads RDFWAL4 only"
		if err == nil || err.Error() != want {
			t.Fatalf("Open = %v, want the error %q", err, want)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, hdr) {
			t.Errorf("the segment changed under a refused Open (read error %v)", err)
		}
		if names, _ := OS().List(dir); len(names) != 1 || names[0] != segName(7) {
			t.Errorf("directory holds %v after a refused Open, want only %s", names, segName(7))
		}
	})
}

func TestUnknownKindTruncates(t *testing.T) {
	dir := t.TempDir()
	img := encodeSegHeader(0, 0)
	img = appendRecord(img, 1, KindInsert, []byte("good"))
	img = appendRecord(img, 2, Kind(3), []byte("from-the-future"))
	img = appendRecord(img, 3, KindInsert, []byte("unreachable"))
	if err := os.WriteFile(filepath.Join(dir, segName(1)), img, 0o644); err != nil {
		t.Fatalf("write segment: %v", err)
	}

	l := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	defer l.Close()
	// The unknown kind is a truncation point, exactly like a CRC failure:
	// nothing at or past it survives, CRC-valid or not.
	if l.LastSeq() != 1 {
		t.Fatalf("LastSeq = %d, want 1 (truncated at the unknown kind)", l.LastSeq())
	}
	if m := l.Metrics(); m.TruncatedBytes == 0 {
		t.Error("TruncatedBytes = 0, want the dropped frames counted")
	}
	if got := collect(t, l, 0); len(got) != 1 || got[1] != "good" {
		t.Fatalf("replay = %v, want only seq 1 %q", got, "good")
	}
	if seq := mustAppend(t, l, "resumed"); seq != 2 {
		t.Fatalf("append after truncation seq = %d, want 2", seq)
	}
}

func TestCRCCoversKindByte(t *testing.T) {
	opts := testOpts(t, SyncAlways)
	l := mustOpen(t, opts)
	mustAppend(t, l, "payload")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(opts.Dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	// Flip the kind byte (frame offset: 4 len + 4 crc + 8 seq) without
	// touching the CRC: the record must fail the checksum, not be read as
	// a kind it was not written as.
	data[segHeaderSize+16] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("rewrite segment: %v", err)
	}
	l2 := mustOpen(t, opts)
	defer l2.Close()
	if l2.LastSeq() != 0 {
		t.Fatalf("LastSeq = %d, want 0 (flipped kind byte must fail the CRC)", l2.LastSeq())
	}
	if got := collect(t, l2, 0); len(got) != 0 {
		t.Fatalf("replay = %v, want nothing", got)
	}
}
