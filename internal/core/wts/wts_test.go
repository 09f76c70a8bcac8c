package wts

import (
	"math/rand"
	"strings"
	"testing"

	"bgla/internal/check"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// cluster builds n-|byz| correct WTS machines (one singleton proposal
// each) plus the supplied byzantine machines.
func cluster(t *testing.T, n, f int, byz []proto.Machine) ([]*Machine, []proto.Machine) {
	t.Helper()
	byzIDs := ident.NewSet()
	for _, b := range byz {
		byzIDs.Add(b.ID())
	}
	var correct []*Machine
	var all []proto.Machine
	for i := 0; i < n; i++ {
		id := ident.ProcessID(i)
		if byzIDs.Has(id) {
			continue
		}
		m, err := New(Config{Self: id, N: n, F: f, Proposal: lattice.FromStrings(id, "v")})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		correct = append(correct, m)
		all = append(all, m)
	}
	all = append(all, byz...)
	return correct, all
}

func correctIDs(ms []*Machine) []ident.ProcessID {
	ids := make([]ident.ProcessID, len(ms))
	for i, m := range ms {
		ids[i] = m.ID()
	}
	return ids
}

// verify runs the LA checker over the run outcome.
func verify(t *testing.T, ms []*Machine, f int, byzValues []lattice.Set, wantLive bool) {
	t.Helper()
	run := &check.LARun{
		Proposals: map[ident.ProcessID]lattice.Set{},
		Decisions: map[ident.ProcessID]lattice.Set{},
		ByzValues: byzValues,
		F:         f,
	}
	for _, m := range ms {
		run.Proposals[m.ID()] = m.cfg.Proposal
		if d, ok := m.Decision(); ok {
			run.Decisions[m.ID()] = d
		}
	}
	var v []string
	if wantLive {
		v = run.All()
	} else {
		v = run.SafetyOnly()
	}
	if len(v) != 0 {
		t.Fatalf("LA violations: %s", strings.Join(v, "; "))
	}
}

func TestAllCorrectDecideWithinBound(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}, {5, 1}, {4, 0}, {1, 0}} {
		correct, all := cluster(t, tc.n, tc.f, nil)
		res := faultnet.New(all, faultnet.Options{Delay: faultnet.Fixed(1)}).Run(faultnet.Limits{MaxTime: 10_000})
		maxT, ok := res.MaxDecisionTime(correctIDs(correct))
		if !ok {
			t.Fatalf("n=%d f=%d: not all decided", tc.n, tc.f)
		}
		bound := uint64(2*tc.f + 5)
		if maxT > bound {
			t.Fatalf("n=%d f=%d: decided at %d > bound %d", tc.n, tc.f, maxT, bound)
		}
		verify(t, correct, tc.f, nil, true)
	}
}

func TestStabilitySingleDecisionEvent(t *testing.T) {
	correct, all := cluster(t, 4, 1, nil)
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000})
	for _, m := range correct {
		if got := len(res.Decisions(m.ID())); got != 1 {
			t.Fatalf("%v decided %d times, want exactly 1 (Stability)", m.ID(), got)
		}
	}
}

// mute is a crash-faulty (silent) byzantine process.
type mute struct {
	proto.Recorder
	id ident.ProcessID
}

func (m *mute) ID() ident.ProcessID                            { return m.id }
func (m *mute) Start() []proto.Output                          { return nil }
func (m *mute) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func TestWaitFreeDespiteMuteByzantines(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		var byz []proto.Machine
		for i := 0; i < tc.f; i++ {
			byz = append(byz, &mute{id: ident.ProcessID(tc.n - 1 - i)})
		}
		correct, all := cluster(t, tc.n, tc.f, byz)
		res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000})
		maxT, ok := res.MaxDecisionTime(correctIDs(correct))
		if !ok {
			t.Fatalf("n=%d f=%d: mute byz blocked decisions", tc.n, tc.f)
		}
		if bound := uint64(2*tc.f + 5); maxT > bound {
			t.Fatalf("n=%d f=%d: decided at %d > bound %d", tc.n, tc.f, maxT, bound)
		}
		verify(t, correct, tc.f, nil, true)
	}
}

func TestRefinementsBoundedByF(t *testing.T) {
	// Stagger proposers so late ack_reqs meet acceptors that already
	// accepted larger sets, forcing nacks and refinements.
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		correct, all := cluster(t, tc.n, tc.f, nil)
		offsets := map[ident.ProcessID]uint64{}
		for i := 0; i < tc.n; i++ {
			offsets[ident.ProcessID(i)] = uint64(i * 2)
		}
		res := faultnet.New(all, faultnet.Options{
			Delay: faultnet.SenderStagger{Base: faultnet.Fixed(1), Offset: offsets},
		}).Run(faultnet.Limits{MaxTime: 100_000})
		for _, m := range correct {
			if r := res.Refinements(m.ID()); r > tc.f {
				t.Fatalf("n=%d f=%d: %v refined %d times > f", tc.n, tc.f, m.ID(), r)
			}
		}
		if _, ok := res.MaxDecisionTime(correctIDs(correct)); !ok {
			t.Fatalf("n=%d f=%d: no decision under stagger", tc.n, tc.f)
		}
		verify(t, correct, tc.f, nil, true)
	}
}

func TestBufferingUnderDelayedDisclosures(t *testing.T) {
	// RBC traffic to p0 is heavily delayed, so p0 receives ack_reqs
	// before the values they contain are safe; it must buffer them and
	// still reach a correct decision once disclosures arrive.
	n, f := 4, 1
	correct, all := cluster(t, n, f, nil)
	slowRBC := faultnet.DelayFunc(func(_, _ ident.ProcessID, m msg.Msg, _ uint64, _ *rand.Rand) uint64 {
		switch m.Kind() {
		case msg.KindRBCSend, msg.KindRBCEcho, msg.KindRBCReady:
			return 16
		}
		return 1
	})
	res := faultnet.New(all, faultnet.Options{Delay: slowRBC}).Run(faultnet.Limits{MaxTime: 100_000})
	if _, ok := res.MaxDecisionTime(correctIDs(correct)); !ok {
		t.Fatal("delayed disclosures blocked decision")
	}
	verify(t, correct, f, nil, true)
}

// unsafeFlooder broadcasts ack_reqs whose items were never disclosed.
type unsafeFlooder struct {
	proto.Recorder
	id    ident.ProcessID
	count int
}

func (u *unsafeFlooder) ID() ident.ProcessID { return u.id }
func (u *unsafeFlooder) Start() []proto.Output {
	var outs []proto.Output
	for i := 0; i < u.count; i++ {
		bad := lattice.FromStrings(99, "undisclosed", string(rune('a'+i%26)))
		outs = append(outs, proto.Bcast(msg.AckReq{Proposed: bad, TS: 0, Round: 0}))
	}
	return outs
}
func (u *unsafeFlooder) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func TestUnsafeProposalsNeverPoisonDecisions(t *testing.T) {
	n, f := 4, 1
	byz := []proto.Machine{&unsafeFlooder{id: 3, count: 5}}
	correct, all := cluster(t, n, f, byz)
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000})
	if _, ok := res.MaxDecisionTime(correctIDs(correct)); !ok {
		t.Fatal("flooder blocked decisions")
	}
	// The flooder disclosed nothing, so B = ∅: decisions must contain
	// only correct proposals.
	verify(t, correct, f, nil, true)
	for _, m := range correct {
		d, _ := m.Decision()
		for _, it := range d.Items() {
			if it.Author == 99 {
				t.Fatalf("undisclosed item leaked into decision: %v", it)
			}
		}
	}
}

func TestWaitingBufferCapEmitsRejects(t *testing.T) {
	m := NewUnchecked(Config{Self: 0, N: 4, F: 1, Proposal: lattice.FromStrings(0, "v"), MaxWaiting: 2})
	m.Start()
	bad := lattice.FromStrings(99, "x")
	for i := 0; i < 3; i++ {
		m.Handle(3, msg.AckReq{Proposed: bad, TS: uint32(i), Round: 0})
	}
	var rejects int
	for _, e := range m.TakeEvents() {
		if _, ok := e.(proto.RejectEvent); ok {
			rejects++
		}
	}
	if rejects != 1 {
		t.Fatalf("rejects = %d, want 1 (third message over cap)", rejects)
	}
}

func TestNewValidatesResilienceBound(t *testing.T) {
	if _, err := New(Config{Self: 0, N: 3, F: 1}); err == nil {
		t.Fatal("New must reject n=3, f=1")
	}
	if m := NewUnchecked(Config{Self: 0, N: 3, F: 1}); m == nil {
		t.Fatal("NewUnchecked must build anyway")
	}
}

func TestMessageComplexityPerProcess(t *testing.T) {
	// §5.1.3: O(n²) messages per process, dominated by the disclosure
	// reliable broadcast. Check the per-process count stays under c·n²
	// and grows superlinearly between n=4 and n=16.
	counts := map[int]int{}
	for _, n := range []int{4, 16} {
		f := (n - 1) / 3
		correct, all := cluster(t, n, f, nil)
		res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000})
		if _, ok := res.MaxDecisionTime(correctIDs(correct)); !ok {
			t.Fatalf("n=%d: no decision", n)
		}
		counts[n] = res.Metrics.MaxSentByProc(correctIDs(correct))
		if counts[n] > 4*n*n {
			t.Fatalf("n=%d: per-process messages %d exceed 4n²", n, counts[n])
		}
	}
	if counts[16] <= counts[4] {
		t.Fatalf("message count did not grow with n: %v", counts)
	}
}

func TestAcceptorKeepsServingAfterDecision(t *testing.T) {
	// A machine that already decided must still ack other proposers
	// (the acceptor role has no state guard).
	m := NewUnchecked(Config{Self: 0, N: 4, F: 1, Proposal: lattice.FromStrings(0, "v")})
	m.state = Decided
	m.decision = lattice.Empty()
	v := lattice.FromStrings(1, "w")
	m.svs.Add(1, v)
	outs := m.Handle(1, msg.AckReq{Proposed: v, TS: 0, Round: 0})
	if len(outs) != 1 {
		t.Fatalf("acceptor did not reply after decision: %v", outs)
	}
	if _, ok := outs[0].Msg.(msg.Ack); !ok {
		t.Fatalf("expected ack, got %T", outs[0].Msg)
	}
}

func TestAcceptorNacksOnIncomparableRequest(t *testing.T) {
	m := NewUnchecked(Config{Self: 0, N: 4, F: 1, Proposal: lattice.Empty()})
	a := lattice.FromStrings(1, "a")
	b := lattice.FromStrings(2, "b")
	m.svs.Add(1, a)
	m.svs.Add(2, b)
	// First request: accept a.
	outs := m.Handle(1, msg.AckReq{Proposed: a, TS: 0, Round: 0})
	if _, ok := outs[0].Msg.(msg.Ack); !ok {
		t.Fatalf("want ack, got %T", outs[0].Msg)
	}
	// Second request with only b: Accepted ⊄ b -> nack, accepted = a ∪ b.
	outs = m.Handle(2, msg.AckReq{Proposed: b, TS: 0, Round: 0})
	nack, ok := outs[0].Msg.(msg.Nack)
	if !ok {
		t.Fatalf("want nack, got %T", outs[0].Msg)
	}
	if !nack.Accepted.Equal(a) {
		t.Fatalf("nack must carry pre-merge Accepted_set, got %v", nack.Accepted)
	}
	if !m.Accepted().Equal(a.Union(b)) {
		t.Fatalf("acceptor must merge after nack: %v", m.Accepted())
	}
}

func TestStaleAcksDropped(t *testing.T) {
	m := NewUnchecked(Config{Self: 0, N: 4, F: 1, Proposal: lattice.FromStrings(0, "v")})
	m.state = Proposing
	m.ts = 5
	m.Handle(1, msg.Ack{Accepted: lattice.Empty(), TS: 3, Round: 0})
	if len(m.waiting) != 0 {
		t.Fatalf("stale ack must be dropped, waiting=%d", len(m.waiting))
	}
	if m.ackers.Len() != 0 {
		t.Fatal("stale ack must not count")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, int) {
		correct, all := cluster(t, 7, 2, nil)
		res := faultnet.New(all, faultnet.Options{
			Seed:  99,
			Delay: faultnet.Uniform{Lo: 1, Hi: 7},
		}).Run(faultnet.Limits{MaxTime: 100_000})
		maxT, _ := res.MaxDecisionTime(correctIDs(correct))
		return maxT, res.Metrics.SentTotal()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("replay diverged: (%d,%d) vs (%d,%d)", t1, s1, t2, s2)
	}
}

func TestRandomDelaysManySeeds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		correct, all := cluster(t, 7, 2, nil)
		res := faultnet.New(all, faultnet.Options{
			Seed:  seed,
			Delay: faultnet.Uniform{Lo: 1, Hi: 9},
		}).Run(faultnet.Limits{MaxTime: 100_000})
		if _, ok := res.MaxDecisionTime(correctIDs(correct)); !ok {
			t.Fatalf("seed %d: no decision", seed)
		}
		verify(t, correct, 2, nil, true)
	}
}

func TestStateString(t *testing.T) {
	if Disclosing.String() != "disclosing" || Proposing.String() != "proposing" || Decided.String() != "decided" {
		t.Fatal("State strings")
	}
	if State(42).String() != "state(42)" {
		t.Fatal("unknown state string")
	}
}
