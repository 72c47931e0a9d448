package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzScanSegment: whatever the bytes, reading a segment image does not
// panic, and of an image with this format's header scanSegment returns
// only frames whose CRC holds, numbered on from prevSeq: the records it
// returns, framed again, are byte for byte the prefix it calls valid. No
// frame reaches past the image, so nothing is sliced or allocated from a
// length prefix the bytes do not back. The seeds are a whole segment, a
// torn one, one with a flipped bit and one whose first length prefix
// claims two gigabytes.
func FuzzScanSegment(f *testing.F) {
	whole := encodeSegHeader(3, 0xfeed)
	for seq := uint64(1); seq <= 3; seq++ {
		whole = appendRecord(whole, seq, KindInsert, fmt.Appendf(nil, "payload %d", seq))
	}
	flipped := bytes.Clone(whole)
	flipped[segHeaderSize+recHeaderSize] ^= 1
	huge := bytes.Clone(whole)
	binary.LittleEndian.PutUint32(huge[segHeaderSize:], 1<<31)
	for _, img := range [][]byte{whole, whole[:len(whole)-3], flipped, huge} {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		dictLen, dictFP, err := decodeSegHeader(img)
		if err != nil {
			return
		}
		recs, valid := scanSegment(img, 0)
		if valid < int64(segHeaderSize) || valid > int64(len(img)) {
			t.Fatalf("valid prefix %d of a %d-byte image", valid, len(img))
		}
		framed := encodeSegHeader(dictLen, dictFP)
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) || rec.Kind != KindInsert {
				t.Fatalf("record %d has seq %d and kind %d", i, rec.Seq, rec.Kind)
			}
			framed = appendRecord(framed, rec.Seq, rec.Kind, rec.Payload)
		}
		if !bytes.Equal(framed, img[:valid]) {
			t.Fatal("the records scanned, framed again, are not the image's valid prefix")
		}
	})
}
