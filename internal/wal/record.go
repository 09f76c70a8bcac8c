package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"bgla/internal/lattice"
	"bgla/internal/msg"
)

// Record kinds: the labels fault hooks see. On disk each is one kind
// byte, its index in recordKinds plus one.
const (
	recDecided = "dec"  // one decided round's delta beyond what is already logged
	recCkpt    = "ckpt" // a checkpoint certificate was installed (marker in the segment)
	recSnap    = "snap" // snapshot file: certificate + full certified prefix
)

var recordKinds = [...]string{recDecided, recCkpt, recSnap}

// recordVersion is the first payload byte of every record. A record
// payload is
//
//	[version][kind][round varint][safeR varint][len uvarint][value][cert]
//
// where value (dec, snap) is a set and cert (ckpt, snap) a CkptCert
// frame, both in the msg binary codec; the cert runs to the end of the
// payload.
const recordVersion byte = 1

// ErrFormat reports a CRC-valid record whose version byte this build
// does not know — a log written by an incompatible build (a JSON-era
// record starts with '{'). Open refuses such a directory and leaves
// every file in it untouched, instead of truncating the unreadable
// records as damage.
var ErrFormat = errors.New("wal: unknown record format version")

// record is one decoded frame payload. Value always holds plain
// flattened items, so replaying any subset of records in any order
// unions to the same state.
type record struct {
	T string
	// Round is the decide round (dec) or certificate round (snap).
	Round int
	// SafeR is the acceptor's Safe_r when the record was appended
	// (dec); recovery restores max over all records so the restarted
	// acceptor re-enters at its pre-crash round frontier.
	SafeR int
	// Len is the cumulative decided length after this record (dec) or
	// the certificate length (ckpt/snap) — a cheap cross-check.
	Len   int
	Value lattice.Set  // dec, snap
	Cert  msg.CkptCert // ckpt, snap
}

// Frame layout: [len u32le][crc32c u32le][payload]. crcTable is
// Castagnoli — hardware-accelerated on amd64/arm64.
const frameHeader = 8

// maxRecordBytes bounds a single record; a length prefix beyond it is
// treated as corruption, not an allocation request (decoders must
// survive arbitrary bytes — FuzzWALDecode).
const maxRecordBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame decode errors: both mean "damaged suffix starts here".
var (
	errTornFrame = errors.New("wal: torn frame (truncated mid-record)")
	errBadCRC    = errors.New("wal: CRC mismatch")
)

// sealFrame fills in the header of frame, whose payload follows
// frameHeader reserved bytes.
func sealFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-frameHeader))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameHeader:], crcTable))
	return frame
}

// decodeFrame splits one frame off data, verifying the CRC. It
// returns the payload and the remainder; an error means the bytes
// from this frame on are damaged or incomplete.
func decodeFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameHeader {
		return nil, nil, errTornFrame
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > maxRecordBytes {
		return nil, nil, errBadCRC
	}
	want := binary.LittleEndian.Uint32(data[4:8])
	if uint32(len(data)-frameHeader) < n {
		return nil, nil, errTornFrame
	}
	payload = data[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, nil, errBadCRC
	}
	return payload, data[frameHeader+int(n):], nil
}

// decodeRecord parses one CRC-verified payload. An unknown version
// byte yields ErrFormat; any other malformation a plain error.
func decodeRecord(payload []byte) (record, error) {
	bad := func(what string) (record, error) {
		return record{}, fmt.Errorf("wal: undecodable record: bad %s", what)
	}
	if len(payload) == 0 {
		// Eight zero bytes frame an empty payload with a valid CRC: a
		// zero-filled tail after power loss is damage, not a format.
		return bad("length")
	}
	if payload[0] != recordVersion {
		return record{}, fmt.Errorf("%w 0x%02x", ErrFormat, payload[0])
	}
	if len(payload) < 2 {
		return bad("kind")
	}
	k := int(payload[1]) - 1
	if k < 0 || k >= len(recordKinds) {
		return record{}, fmt.Errorf("wal: unknown record kind %d", payload[1])
	}
	r := record{T: recordKinds[k]}
	rest := payload[2:]
	var fields [2]int64
	for i := range fields {
		v, n := binary.Varint(rest)
		if n <= 0 {
			return bad("round")
		}
		fields[i], rest = v, rest[n:]
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > math.MaxInt32 {
		return bad("length")
	}
	r.Round, r.SafeR, r.Len, rest = int(fields[0]), int(fields[1]), int(n), rest[w:]
	if r.T != recCkpt {
		var err error
		if r.Value, rest, err = msg.ReadSet(rest); err != nil {
			return bad("value")
		}
	}
	if r.T == recDecided {
		if len(rest) != 0 {
			return bad("trailer")
		}
		return r, nil
	}
	m, err := msg.DecodeBinary(rest)
	cert, ok := m.(msg.CkptCert)
	if err != nil || !ok {
		return bad("certificate")
	}
	r.Cert = cert
	return r, nil
}

// decodeAll walks a segment's bytes, returning every decodable record
// and the offset where the valid prefix ends. It never panics on
// arbitrary input and never returns a record whose frame failed its
// CRC; err reports why the walk stopped early (nil when the whole
// buffer parsed).
func decodeAll(data []byte) (recs []record, good int, err error) {
	rest := data
	for len(rest) > 0 {
		payload, next, ferr := decodeFrame(rest)
		if ferr != nil {
			return recs, good, ferr
		}
		r, rerr := decodeRecord(payload)
		if rerr != nil {
			// The frame is intact but semantically alien (e.g. a future
			// record kind): stop here, keeping the prefix. ErrFormat
			// travels up so recovery refuses the directory outright.
			return recs, good, rerr
		}
		recs = append(recs, r)
		good = len(data) - len(next)
		rest = next
	}
	return recs, good, nil
}

// encodeRecord encodes and frames one record.
func encodeRecord(r record) ([]byte, error) {
	k := slices.Index(recordKinds[:], r.T)
	if k < 0 || r.Len < 0 {
		return nil, fmt.Errorf("wal: cannot encode %q record of length %d", r.T, r.Len)
	}
	frame := append(make([]byte, frameHeader, 64), recordVersion, byte(k+1))
	frame = binary.AppendVarint(frame, int64(r.Round))
	frame = binary.AppendVarint(frame, int64(r.SafeR))
	frame = binary.AppendUvarint(frame, uint64(r.Len))
	if r.T != recCkpt {
		frame = msg.AppendSet(frame, r.Value)
	}
	if r.T != recDecided {
		var err error
		if frame, err = msg.AppendBinary(frame, r.Cert); err != nil {
			return nil, err
		}
	}
	return sealFrame(frame), nil
}
