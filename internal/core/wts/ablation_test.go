package wts

import (
	"testing"

	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// junkAcker floods undisclosed-value requests and acks everything (the
// E12a attacker at the unit level).
type junkAcker struct {
	proto.Recorder
	id ident.ProcessID
}

func (j *junkAcker) ID() ident.ProcessID { return j.id }
func (j *junkAcker) Start() []proto.Output {
	bad := lattice.FromStrings(99, "never-disclosed")
	return []proto.Output{proto.Bcast(msg.AckReq{Proposed: bad, TS: 0, Round: 0})}
}
func (j *junkAcker) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	if req, ok := m.(msg.AckReq); ok {
		return []proto.Output{proto.Send(from, msg.Ack{Accepted: req.Proposed, TS: req.TS, Round: req.Round})}
	}
	return nil
}

// runAblatedSafe runs a 4-process cluster (one junkAcker) with the SAFE
// predicate on or off and reports whether any decision contains the
// undisclosed item.
func runAblatedSafe(t *testing.T, disable bool) bool {
	t.Helper()
	n, f := 4, 1
	var machines []proto.Machine
	var correct []*Machine
	for i := 0; i < n-1; i++ {
		id := ident.ProcessID(i)
		m := NewUnchecked(Config{
			Self: id, N: n, F: f,
			Proposal:         lattice.FromStrings(id, "v"),
			DisableSafeCheck: disable,
		})
		correct = append(correct, m)
		machines = append(machines, m)
	}
	machines = append(machines, &junkAcker{id: 3})
	faultnet.New(machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000})
	leaked := false
	for _, m := range correct {
		d, ok := m.Decision()
		if !ok {
			t.Fatalf("disable=%v: %v did not decide", disable, m.ID())
		}
		if d.Contains(lattice.Item{Author: 99, Body: "never-disclosed"}) {
			leaked = true
		}
	}
	return leaked
}

func TestSafeCheckBlocksUndisclosedValues(t *testing.T) {
	if runAblatedSafe(t, false) {
		t.Fatal("SAFE() on: undisclosed value leaked into a decision")
	}
	if !runAblatedSafe(t, true) {
		t.Fatal("SAFE() off: the ablation should admit the undisclosed value")
	}
}

func TestDisableRBCUsesPlainDisclosures(t *testing.T) {
	// With RBC off and only honest processes, the protocol still works
	// (the ablation removes a defense, not correctness under honesty).
	n, f := 4, 1
	var machines []proto.Machine
	var correct []*Machine
	for i := 0; i < n; i++ {
		id := ident.ProcessID(i)
		m := NewUnchecked(Config{
			Self: id, N: n, F: f,
			Proposal:   lattice.FromStrings(id, "v"),
			DisableRBC: true,
		})
		correct = append(correct, m)
		machines = append(machines, m)
	}
	res := faultnet.New(machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000})
	for _, m := range correct {
		if _, ok := m.Decision(); !ok {
			t.Fatalf("%v did not decide without RBC (honest run)", m.ID())
		}
	}
	// And it is strictly cheaper: no echo/ready traffic at all.
	if res.Metrics.SentByKind(msg.KindRBCEcho) != 0 || res.Metrics.SentByKind(msg.KindRBCReady) != 0 {
		t.Fatal("RBC traffic present despite ablation")
	}
	// Decision latency drops below the RBC-based bound: 1 disclosure
	// hop instead of 3, plus up to f refinement round trips.
	ids := make([]ident.ProcessID, n)
	for i := range ids {
		ids[i] = ident.ProcessID(i)
	}
	if maxT, ok := res.MaxDecisionTime(ids); !ok || maxT > uint64(2*f+3) {
		t.Fatalf("ablated latency = %d, want <= %d", maxT, 2*f+3)
	}
}

func TestDisableRBCRejectsNothingButDirectDisclosures(t *testing.T) {
	// With RBC on (default), a direct plain Disclosure must be rejected
	// rather than absorbed into the SvS.
	m := NewUnchecked(Config{Self: 0, N: 4, F: 1, Proposal: lattice.Empty()})
	m.Handle(2, msg.Disclosure{Round: 0, Value: lattice.FromStrings(2, "sneak")})
	if m.SvS().Count() != 0 {
		t.Fatal("plain disclosure absorbed without RBC delivery")
	}
}
