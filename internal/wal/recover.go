package wal

import (
	"errors"
	"fmt"
	"path"
	"strings"

	"bgla/internal/lattice"
	"bgla/internal/msg"
)

// Recovered is everything a log's directory yields at open: the best
// intact checkpoint snapshot plus the union of every decided record
// in every readable segment. gwts.(*Machine).Rehydrate installs it
// into a fresh machine; certificate signatures are verified there
// (the wal layer checks only framing, CRCs and digest consistency —
// it has no keychain).
type Recovered struct {
	// HasCkpt reports an intact snapshot; Cert is its certificate and
	// Base the certified prefix (Base.Digest() == Cert.Dig, verified).
	HasCkpt bool
	Cert    msg.CkptCert
	Base    lattice.Set
	// Tail is the union of every decided record's items across all
	// readable segments (replay is union-idempotent, so deltas framed
	// against any older state still reconstruct exactly).
	Tail lattice.Set
	// Round and SafeR are the maxima logged; the restarted acceptor
	// resumes at its pre-crash round frontier.
	Round int
	SafeR int
	// Records counts replayed decided records; Segments the segment
	// files read.
	Records  int
	Segments int
	// TornTail reports that a segment or snapshot had a damaged suffix
	// (torn write, bit flip, power loss past the synced prefix);
	// Discarded is the total damaged bytes dropped.
	TornTail  bool
	Discarded int64
}

// Decided returns the full recovered decided value (base ∪ tail).
func (r *Recovered) Decided() lattice.Set {
	if r == nil {
		return lattice.Empty()
	}
	return r.Base.Union(r.Tail)
}

// Empty reports a blank directory (fresh replica, nothing to restore).
func (r *Recovered) Empty() bool {
	return r == nil || (!r.HasCkpt && r.Records == 0 && r.Tail.IsEmpty())
}

// File naming.
const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	snapPrefix = "ckpt-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func segName(seq int) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }
func snapName(n int) string  { return fmt.Sprintf("%s%012d%s", snapPrefix, n, snapSuffix) }

func parseSeg(name string) (int, bool) {
	return parseNumbered(name, segPrefix, segSuffix)
}
func parseSnap(name string) (int, bool) {
	return parseNumbered(name, snapPrefix, snapSuffix)
}
func parseNumbered(name, prefix, suffix string) (int, bool) {
	mid, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	mid, ok = strings.CutSuffix(mid, suffix)
	if !ok {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(mid, "%d", &n); err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// inventory is what scan found on disk, for the Log's bookkeeping.
type inventory struct {
	segSeqs  []int // ascending
	maxSeq   int
	snapLens []int // every snapshot file present, ascending by length
	// chosenSnap is the length of the snapshot recovery used (-1 none);
	// fellBack reports the newest snapshot was damaged and an older one
	// was used instead — open-time segment compaction must then be
	// skipped, because only the full segment history bridges the gap.
	chosenSnap int
	fellBack   bool
}

// scan reads a log directory: pick the newest intact snapshot
// (falling back to older ones if the newest is damaged), then replay
// every readable segment on top, healing torn tails by truncating the
// damaged suffix in place. Leftover .tmp files (a crash mid-snapshot
// write) are removed. Nothing on disk changes until every file has
// been read, so a directory holding a record of an unknown format
// (ErrFormat) is refused exactly as found.
func scan(fs FS, dir string) (*Recovered, inventory, error) {
	rec := &Recovered{Base: lattice.Empty(), Tail: lattice.Empty(), Round: -1, SafeR: -1}
	inv := inventory{chosenSnap: -1}
	names, err := fs.List(dir)
	if err != nil {
		return nil, inv, err
	}
	var tmps []string
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			tmps = append(tmps, name) // interrupted snapshot write
			continue
		}
		if seq, ok := parseSeg(name); ok {
			inv.segSeqs = append(inv.segSeqs, seq)
			if seq > inv.maxSeq {
				inv.maxSeq = seq
			}
			continue
		}
		if n, ok := parseSnap(name); ok {
			inv.snapLens = append(inv.snapLens, n)
		}
	}

	// Newest intact snapshot wins; a damaged newest snapshot falls back
	// to its predecessor (segments covering the gap are retained one
	// full checkpoint generation precisely so this fallback loses
	// nothing — see Log pruning).
	for i := len(inv.snapLens) - 1; i >= 0; i-- {
		name := path.Join(dir, snapName(inv.snapLens[i]))
		data, err := fs.ReadFile(name)
		if err != nil {
			continue
		}
		payload, _, derr := decodeFrame(data)
		if derr != nil {
			rec.TornTail = true
			rec.Discarded += int64(len(data))
			inv.fellBack = true
			continue
		}
		r, derr := decodeRecord(payload)
		if errors.Is(derr, ErrFormat) {
			return nil, inv, fmt.Errorf("%s: %w", name, derr)
		}
		if derr != nil || r.T != recSnap {
			inv.fellBack = true
			continue
		}
		if r.Value.Digest() != r.Cert.Dig || r.Value.Len() != r.Cert.Len {
			inv.fellBack = true
			continue // snapshot value does not match its own certificate
		}
		rec.HasCkpt = true
		rec.Cert = r.Cert
		rec.Base = r.Value
		inv.chosenSnap = inv.snapLens[i]
		if r.Cert.Round > rec.SafeR {
			rec.SafeR = r.Cert.Round
		}
		if r.Cert.Round > rec.Round {
			rec.Round = r.Cert.Round
		}
		break
	}

	// Replay every segment in sequence order. Records hold plain item
	// sets, so unioning everything — including deltas framed against
	// older bases — reconstructs the decided value exactly.
	type heal struct {
		name string
		good int
	}
	var heals []heal
	for _, seq := range inv.segSeqs {
		name := path.Join(dir, segName(seq))
		data, err := fs.ReadFile(name)
		if err != nil {
			return nil, inv, err
		}
		rec.Segments++
		recs, good, derr := decodeAll(data)
		if errors.Is(derr, ErrFormat) {
			return nil, inv, fmt.Errorf("%s: %w", name, derr)
		}
		if derr != nil && good < len(data) {
			// Damaged suffix: discard it, and below heal the file in
			// place so the next open sees a clean segment.
			rec.TornTail = true
			rec.Discarded += int64(len(data) - good)
			heals = append(heals, heal{name, good})
		}
		for _, r := range recs {
			switch r.T {
			case recDecided:
				rec.Tail = rec.Tail.Union(r.Value)
				rec.Records++
				if r.Round > rec.Round {
					rec.Round = r.Round
				}
				if r.SafeR > rec.SafeR {
					rec.SafeR = r.SafeR
				}
			case recCkpt:
				// Marker only — the snapshot carries the installable
				// state — but its certificate round still witnesses the
				// legitimate round frontier.
				if r.Cert.Round > rec.SafeR {
					rec.SafeR = r.Cert.Round
				}
			}
		}
	}
	for _, h := range heals {
		if err := fs.Truncate(h.name, int64(h.good)); err != nil {
			return nil, inv, err
		}
	}
	for _, name := range tmps {
		_ = fs.Remove(path.Join(dir, name))
	}
	return rec, inv, nil
}
