package wal

import (
	"encoding/hex"
	"errors"
	"path"
	"testing"

	"bgla/internal/lattice"
	"bgla/internal/msg"
)

// goldenRecords is one record of each kind.
func goldenRecords() []record {
	v := lattice.FromItems(items(3)...)
	cert := msg.CkptCert{Epoch: 1, Round: 4, Len: v.Len(), Dig: v.Digest(), Image: []byte("img"),
		Sigs: []msg.CkptSig{{Epoch: 1, Round: 4, Len: v.Len(), Dig: v.Digest(), Image: []byte("img"), Signer: 2, Sig: []byte{7, 8}}}}
	return []record{
		{T: recDecided, Round: 5, SafeR: 6, Len: 3, Value: v},
		{T: recCkpt, Len: 3, Cert: cert},
		{T: recSnap, Round: 4, Len: 3, Value: v, Cert: cert},
	}
}

// TestRecordGolden pins the on-disk bytes of one frame per record kind:
// logs outlive builds, so a change here must bump recordVersion.
func TestRecordGolden(t *testing.T) {
	want := []string{
		"1e000000996726d401010a0c03030206636d642d61610206636d642d61620206636d642d6163", // dec
		"5a0000003e39cc240102000003b61a020806842927a2a8cd4b684502f98420251bd7d42c3a684be3c24efd7c92ec0375d50b03696d6701020806842927a2a8cd4b684502f98420251bd7d42c3a684be3c24efd7c92ec0375d50b03696d6704020708",                                                   // ckpt
		"73000000b290025c0103080003030206636d642d61610206636d642d61620206636d642d6163b61a020806842927a2a8cd4b684502f98420251bd7d42c3a684be3c24efd7c92ec0375d50b03696d6701020806842927a2a8cd4b684502f98420251bd7d42c3a684be3c24efd7c92ec0375d50b03696d6704020708", // snap
	}
	for i, r := range goldenRecords() {
		frame, err := encodeRecord(r)
		if err != nil {
			t.Fatalf("%s: %v", r.T, err)
		}
		if got := hex.EncodeToString(frame); got != want[i] {
			t.Errorf("%s frame = %s, want %s", r.T, got, want[i])
		}
		back, err := decodeRecord(frame[frameHeader:])
		if err != nil {
			t.Fatalf("%s: decode: %v", r.T, err)
		}
		if again, err := encodeRecord(back); err != nil || hex.EncodeToString(again) != want[i] {
			t.Fatalf("%s: decoded record re-encodes differently (%v)", r.T, err)
		}
	}
}

// TestOpenRefusesUnknownFormat: a CRC-valid record written in another
// format — here a JSON-era record, as the previous log format framed
// it — makes Open fail with ErrFormat, and no file in the directory
// changes: not the unreadable segment or snapshot (which recovery would
// otherwise truncate as damage), not its torn tail, not a leftover
// .tmp file.
func TestOpenRefusesUnknownFormat(t *testing.T) {
	jsonEra := func(payload string) []byte {
		return sealFrame(append(make([]byte, frameHeader), payload...))
	}
	cases := map[string][]byte{
		segName(1):  append(jsonEra(`{"t":"dec","r":1,"s":1,"n":1,"v":[{"a":1,"b":"cmd-aa"}]}`), 0xde, 0xad),
		snapName(1): jsonEra(`{"t":"snap","r":1,"n":1,"v":[{"a":1,"b":"cmd-aa"}],"c":{"round":1,"len":1}}`),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			fs := NewMemFS()
			dir := "data/r0"
			if err := fs.MkdirAll(dir); err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{name: data, snapName(0) + tmpSuffix: []byte("partial")}
			for n, b := range files {
				f, err := fs.Create(path.Join(dir, n))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(b); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := Open(fs, dir, Options{Policy: SyncRecord}); !errors.Is(err, ErrFormat) {
				t.Fatalf("Open = %v, want ErrFormat", err)
			}
			names, err := fs.List(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != len(files) {
				t.Fatalf("directory holds %v after a refused Open, want exactly %d files", names, len(files))
			}
			for n, b := range files {
				if got, err := fs.ReadFile(path.Join(dir, n)); err != nil || string(got) != string(b) {
					t.Fatalf("%s changed: %x -> %x (%v)", n, b, got, err)
				}
			}
		})
	}
}
