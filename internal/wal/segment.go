package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// On-disk layout. A segment file is a fixed header followed by a run of
// framed records:
//
//	header:  magic "RDFWAL4\n" | uint32 dictLen | uint64 dictFP
//	record:  uint32 frameLen | uint32 crc32c | uint64 seq | uint8 kind | payload
//
// frameLen counts the seq and kind fields plus the payload (so a record
// occupies 8+frameLen bytes on disk) and the CRC covers exactly those
// frameLen bytes — a flipped bit in the sequence number, the record
// kind, or the payload fails the checksum. All integers are
// little-endian. The header's dictLen/dictFP stamp the term-dictionary
// state at segment creation so recovery can refuse to replay a log
// against a foreign checkpoint.
//
// This is the one format the package writes and the one it reads, with
// one record kind. "RDFWAL1\n" (no kind byte), "RDFWAL2\n" (no overwrite
// kind) and "RDFWAL3\n" (three kinds: insert, delete and overwrite) only
// ever existed in this repository's own history. A segment of another
// RDFWAL format, a header-only one included, is refused by name rather
// than taken for a torn header and deleted.
const (
	segMagic      = "RDFWAL4\n"
	segHeaderSize = len(segMagic) + 4 + 8
	recHeaderSize = 4 + 4 + 8 + 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind is a record's kind byte. This format has one kind: a record is an
// update batch, whatever its payload says the batch does.
type Kind uint8

// KindInsert is the one record kind.
const KindInsert Kind = 0

// Record is one WAL entry: a monotonically increasing sequence number,
// its kind, and the raw update-batch payload.
type Record struct {
	Seq     uint64
	Kind    Kind
	Payload []byte
}

// segName names a segment by the first sequence number that can land in
// it; lexicographic order of names is sequence order.
func segName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", firstSeq)
}

// parseSegName inverts segName.
func parseSegName(name string) (uint64, bool) {
	hex, pre := strings.CutPrefix(name, "wal-")
	hex, suf := strings.CutSuffix(hex, ".seg")
	n, err := strconv.ParseUint(hex, 16, 64)
	return n, pre && suf && len(hex) == 16 && err == nil
}

// encodeSegHeader renders a segment header.
func encodeSegHeader(dictLen int, dictFP uint64) []byte {
	buf := make([]byte, segHeaderSize)
	copy(buf, segMagic)
	binary.LittleEndian.PutUint32(buf[len(segMagic):], uint32(dictLen))
	binary.LittleEndian.PutUint64(buf[len(segMagic)+4:], dictFP)
	return buf
}

// errTornHeader says a segment does not start with a whole header of any
// RDFWAL format: what a crash during segment creation leaves.
var errTornHeader = errors.New("torn segment header")

// decodeSegHeader validates and reads a segment header. A header of
// another RDFWAL format is an error that names it; anything else that is
// not this build's header is errTornHeader.
func decodeSegHeader(data []byte) (dictLen int, dictFP uint64, err error) {
	if len(data) < segHeaderSize {
		return 0, 0, errTornHeader
	}
	if magic := string(data[:len(segMagic)]); magic != segMagic {
		if strings.HasPrefix(magic, "RDFWAL") && strings.HasSuffix(magic, "\n") {
			return 0, 0, fmt.Errorf("is %s; this build reads %s only", magic[:len(magic)-1], segMagic[:len(segMagic)-1])
		}
		return 0, 0, errTornHeader
	}
	dictLen = int(binary.LittleEndian.Uint32(data[len(segMagic):]))
	dictFP = binary.LittleEndian.Uint64(data[len(segMagic)+4:])
	return dictLen, dictFP, nil
}

// appendRecord frames one record onto buf.
func appendRecord(buf []byte, seq uint64, kind Kind, payload []byte) []byte {
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(9+len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	hdr[16] = byte(kind)
	crc := crc32.Checksum(hdr[8:17], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// scanSegment walks the records of a segment file image (header
// included), enforcing the CRC and strict sequence continuity from
// prevSeq. It returns the valid records and the byte offset of the first
// invalid frame — torn short, checksum-failed, out of sequence, or
// carrying an unknown record kind; valid == len(data) means the segment
// is whole.
func scanSegment(data []byte, prevSeq uint64) (recs []Record, valid int64) {
	const minBody = 8 + 1 // seq + kind
	off := segHeaderSize
	for {
		if off+8+minBody > len(data) {
			return recs, int64(off)
		}
		frameLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if frameLen < minBody || off+8+frameLen > len(data) {
			return recs, int64(off)
		}
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		body := data[off+8 : off+8+frameLen]
		if crc32.Checksum(body, castagnoli) != want {
			return recs, int64(off)
		}
		seq := binary.LittleEndian.Uint64(body[:8])
		kind := Kind(body[8])
		if seq != prevSeq+1 || kind != KindInsert {
			return recs, int64(off)
		}
		recs = append(recs, Record{Seq: seq, Kind: kind, Payload: body[9:]})
		prevSeq = seq
		off += 8 + frameLen
	}
}
