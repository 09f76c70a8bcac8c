package faultnet_test

import (
	"fmt"
	"testing"

	"bgla/internal/byz"
	"bgla/internal/check"
	"bgla/internal/core/gwts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
)

// codecLink carries one ordered link's traffic through a real wire
// codec pair: the sender's delta encoder and the receiver's decoder,
// exactly as tcpnet runs them.
type codecLink struct {
	enc *msg.DeltaEncoder
	dec *msg.DeltaDecoder
}

// transcoder is a faultnet Transcode hook that sends every delivery
// through its link's binary delta codec pair.
type transcoder struct {
	t      *testing.T
	links  map[[2]ident.ProcessID]*codecLink
	frames int
	deltas int // frames that went out delta-encoded
}

func newTranscoder(t *testing.T) *transcoder {
	return &transcoder{t: t, links: make(map[[2]ident.ProcessID]*codecLink)}
}

func (tc *transcoder) transcode(from, to ident.ProcessID, m msg.Msg) msg.Msg {
	key := [2]ident.ProcessID{from, to}
	l := tc.links[key]
	if l == nil {
		l = &codecLink{enc: msg.NewDeltaEncoder(), dec: msg.NewDeltaDecoder()}
		tc.links[key] = l
	}
	before, _ := l.enc.Frames()
	frame, err := l.enc.Encode(m)
	if err != nil {
		tc.t.Errorf("%v->%v: encode %T: %v", from, to, m, err)
		return m
	}
	tc.frames++
	if after, _ := l.enc.Frames(); after > before {
		tc.deltas++
	}
	out, nack, err := l.dec.Decode(frame)
	if err != nil {
		tc.t.Errorf("%v->%v: decode %T: %v", from, to, m, err)
		return m
	}
	if nack != nil {
		// Encoder and decoder run in lockstep on an in-memory link, so
		// an unknown-base nack means the codec pair lost sync.
		tc.t.Errorf("%v->%v: unexpected delta nack for %T", from, to, m)
		return m
	}
	return out
}

// driveCoded runs one active-Byzantine GWTS scenario (3 correct
// replicas + an RBC equivocator, reordering and duplication faults)
// with an optional wire-codec shim, and returns the delivery trace and
// what each replica received.
func driveCoded(t *testing.T, seed int64, tc func(ident.ProcessID, ident.ProcessID, msg.Msg) msg.Msg) (*faultnet.Trace, []*gwts.Machine, faultnet.Received) {
	t.Helper()
	machines, reps := faultnet.Cluster(t, 4, 1, 3)
	machines = append(machines, &byz.Equivocator{
		Self:  3,
		Tag:   "gwts/disc/0",
		SideA: []ident.ProcessID{0},
		SideB: []ident.ProcessID{1, 2},
		ValA:  lattice.FromStrings(3, "split-A"),
		ValB:  lattice.FromStrings(3, "split-B"),
	})
	sched := &faultnet.Schedule{Ops: []faultnet.Op{
		faultnet.NewReorder(0, 300, 3),
		faultnet.NewDup(50, 200, 2),
	}}
	tr, rec := &faultnet.Trace{}, faultnet.Received{}
	hook := func(from, to ident.ProcessID, m msg.Msg) msg.Msg {
		if tc != nil {
			m = tc(from, to, m)
		}
		return rec.Record(from, to, m)
	}
	net := faultnet.New(machines, faultnet.Options{Seed: seed, Delay: faultnet.Uniform{Lo: 1, Hi: 3}, Schedule: sched, Trace: tr, Transcode: hook})
	for k := 0; k < 6; k++ {
		cmd := lattice.Item{Author: faultnet.TestClient, Body: fmt.Sprintf("mix-%03d", k)}
		net.Send(faultnet.TestClient, ident.ProcessID(k%2), msg.NewValue{Cmd: cmd})
		net.Run(faultnet.Limits{})
	}
	return tr, reps, rec
}

// TestTranscodedClusterByteStable: a cluster whose every link runs
// through the binary delta codec must behave identically to an uncoded
// in-memory run — same seed, same fault schedule, byte-identical
// delivery trace — and still satisfy GLA with an active equivocator in
// the mix. Any field the codec loses or reorders (set items, digests,
// nested wrappers) would surface as a trace diff or a GLA violation.
func TestTranscodedClusterByteStable(t *testing.T) {
	const seed = 31
	base, repsBase, recBase := driveCoded(t, seed, nil)

	tc := newTranscoder(t)
	coded, repsCoded, recCoded := driveCoded(t, seed, tc.transcode)

	if d := faultnet.Diff(base, coded); d != "" {
		t.Fatalf("transcoded run diverged from in-memory run: %s", d)
	}
	if tc.deltas == 0 || tc.deltas == tc.frames {
		t.Fatalf("codec paths not all exercised: %d frames, %d delta-encoded", tc.frames, tc.deltas)
	}
	for i, reps := range [][]*gwts.Machine{repsBase, repsCoded} {
		rec := []faultnet.Received{recBase, recCoded}[i]
		run := &check.GLARun{
			DecisionSeqs: map[ident.ProcessID][]lattice.Set{},
			Inputs:       map[ident.ProcessID]lattice.Set{},
			// The equivocator's disclosures are Byzantine-attributable:
			// RBC agreement lets at most one of them be decided.
			ByzValues: []lattice.Set{lattice.FromStrings(3, "split-A"), lattice.FromStrings(3, "split-B")},
		}
		for _, m := range reps {
			run.DecisionSeqs[m.ID()] = m.Decisions()
			run.Inputs[m.ID()] = rec.Of(m.ID())
		}
		if v := run.All(1); len(v) != 0 {
			t.Fatalf("GLA violations under the wire codec: %v", v)
		}
		for _, m := range reps {
			if m.Decided().Len() < 6 {
				t.Fatalf("replica %v decided %d/6 values", m.ID(), m.Decided().Len())
			}
		}
	}
}
