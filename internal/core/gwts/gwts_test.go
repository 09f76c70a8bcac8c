package gwts

import (
	"fmt"
	"strings"
	"testing"

	"bgla/internal/check"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// buildCluster creates n-len(byz) correct GWTS machines. seedValues[i]
// seeds Batch[0] of machine i.
func buildCluster(t *testing.T, n, f int, seedValues map[int][]lattice.Item, byz []proto.Machine, opts func(*Config)) ([]*Machine, []proto.Machine) {
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
		cfg := Config{Self: id, N: n, F: f, InitialValues: seedValues[i]}
		if opts != nil {
			opts(&cfg)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		correct = append(correct, m)
		all = append(all, m)
	}
	all = append(all, byz...)
	return correct, all
}

func item(author int, body string) lattice.Item {
	return lattice.Item{Author: ident.ProcessID(author), Body: body}
}

// verifyGLA runs the full generalized checker.
func verifyGLA(t *testing.T, correct []*Machine, byzValues []lattice.Set, minDecisions int) {
	t.Helper()
	run := &check.GLARun{
		DecisionSeqs: map[ident.ProcessID][]lattice.Set{},
		Inputs:       map[ident.ProcessID]lattice.Set{},
		ByzValues:    byzValues,
	}
	for _, m := range correct {
		run.DecisionSeqs[m.ID()] = m.Decisions()
		run.Inputs[m.ID()] = m.Inputs()
	}
	if v := run.All(minDecisions); len(v) != 0 {
		t.Fatalf("GLA violations: %s", strings.Join(v, "; "))
	}
}

func TestSingleRoundAllCorrect(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		seeds := map[int][]lattice.Item{}
		for i := 0; i < tc.n; i++ {
			seeds[i] = []lattice.Item{item(i, "v0")}
		}
		correct, all := buildCluster(t, tc.n, tc.f, seeds, nil, nil)
		res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 100_000})
		if res.Undelivered != 0 {
			t.Fatalf("n=%d: run did not quiesce (%d undelivered)", tc.n, res.Undelivered)
		}
		verifyGLA(t, correct, nil, 1)
		// Everyone decided round 0 with all n values (all correct).
		for _, m := range correct {
			if len(m.Decisions()) < 1 {
				t.Fatalf("n=%d: %v has no decision", tc.n, m.ID())
			}
		}
	}
}

func TestMultiRoundBatching(t *testing.T) {
	// Three bursts of values arrive over time through NewValue messages
	// sent by a feeder; every machine must decide every value, with
	// decisions forming one global chain.
	n, f := 4, 1
	correct, all := buildCluster(t, n, f, nil, nil, nil)
	feeder := &feederMachine{id: 100, n: n, f: f}
	all = append(all, feeder)
	var wakeups []faultnet.Wakeup
	for k := 0; k < 6; k++ {
		wakeups = append(wakeups, faultnet.Wakeup{At: uint64(1 + 30*k), To: 100, Tag: fmt.Sprintf("val-%d", k)})
	}
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000, Wakeups: wakeups})
	if res.Undelivered != 0 {
		t.Fatalf("did not quiesce: %d undelivered", res.Undelivered)
	}
	verifyGLA(t, correct, nil, 1)
	// All six values decided everywhere (Inclusivity is per-receiver;
	// here check global convergence too).
	for _, m := range correct {
		last := m.Decided()
		for k := 0; k < 6; k++ {
			if !last.Contains(item(100, fmt.Sprintf("val-%d", k))) {
				t.Fatalf("%v final decision misses val-%d: %v", m.ID(), k, last)
			}
		}
	}
}

// feederMachine sends one NewValue to f+1 replicas per wakeup.
type feederMachine struct {
	proto.Recorder
	id   ident.ProcessID
	n, f int
}

func (fm *feederMachine) ID() ident.ProcessID   { return fm.id }
func (fm *feederMachine) Start() []proto.Output { return nil }
func (fm *feederMachine) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	w, ok := m.(msg.Wakeup)
	if !ok {
		return nil
	}
	var outs []proto.Output
	cmd := item(int(fm.id), w.Tag)
	for i := 0; i < fm.f+1; i++ {
		outs = append(outs, proto.Send(ident.ProcessID(i), msg.NewValue{Cmd: cmd}))
	}
	return outs
}

type muteMachine struct {
	proto.Recorder
	id ident.ProcessID
}

func (m *muteMachine) ID() ident.ProcessID                            { return m.id }
func (m *muteMachine) Start() []proto.Output                          { return nil }
func (m *muteMachine) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func TestProgressDespiteMuteByzantines(t *testing.T) {
	n, f := 7, 2
	seeds := map[int][]lattice.Item{}
	for i := 0; i < n-f; i++ {
		seeds[i] = []lattice.Item{item(i, "x")}
	}
	byz := []proto.Machine{&muteMachine{id: 5}, &muteMachine{id: 6}}
	correct, all := buildCluster(t, n, f, seeds, byz, nil)
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 100_000})
	if res.Undelivered != 0 {
		t.Fatalf("did not quiesce: %d undelivered", res.Undelivered)
	}
	verifyGLA(t, correct, nil, 1)
}

func TestMinRoundsForcesEmptyRounds(t *testing.T) {
	n, f := 4, 1
	seeds := map[int][]lattice.Item{0: {item(0, "only")}}
	correct, all := buildCluster(t, n, f, seeds, nil, func(c *Config) { c.MinRounds = 3 })
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
	if res.Undelivered != 0 {
		t.Fatal("did not quiesce")
	}
	verifyGLA(t, correct, nil, 3)
	for _, m := range correct {
		if got := len(m.Decisions()); got < 3 {
			t.Fatalf("%v decided %d rounds, want >= 3", m.ID(), got)
		}
	}
}

func TestLocalStabilityAcrossRounds(t *testing.T) {
	n, f := 4, 1
	seeds := map[int][]lattice.Item{}
	for i := 0; i < n; i++ {
		seeds[i] = []lattice.Item{item(i, "r0")}
	}
	correct, all := buildCluster(t, n, f, seeds, nil, func(c *Config) { c.MinRounds = 4 })
	faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
	for _, m := range correct {
		seq := m.Decisions()
		for h := 1; h < len(seq); h++ {
			if !seq[h-1].SubsetOf(seq[h]) {
				t.Fatalf("%v: decision %d not ⊆ decision %d", m.ID(), h-1, h)
			}
		}
	}
}

// roundJumper discloses for a far-future round at start, attempting the
// round-skipping attack of §6.2; Safe_r gating must confine it.
type roundJumper struct {
	proto.Recorder
	id    ident.ProcessID
	round int
	peer  interface {
		Broadcast(string, msg.Msg) []proto.Output
	}
}

func TestRoundJumperCannotSkipRounds(t *testing.T) {
	n, f := 4, 1
	seeds := map[int][]lattice.Item{}
	for i := 0; i < n-1; i++ {
		seeds[i] = []lattice.Item{item(i, "v")}
	}
	// The jumper speaks raw protocol: it discloses round 7 and sends
	// ack_reqs for round 7 straight away.
	jumper := &rawSender{id: 3, outs: func() []proto.Output {
		far := lattice.FromStrings(3, "future")
		outs := []proto.Output{
			proto.Bcast(msg.RBCSend{Src: 3, Tag: "gwts/disc/7", Payload: msg.Disclosure{Round: 7, Value: far}}),
			proto.Bcast(msg.AckReq{Proposed: far, TS: 99, Round: 7}),
		}
		return outs
	}}
	correct, all := buildCluster(t, n, f, seeds, []proto.Machine{jumper}, nil)
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 100_000})
	if res.Undelivered != 0 {
		t.Fatal("did not quiesce")
	}
	verifyGLA(t, correct, []lattice.Set{lattice.FromStrings(3, "future")}, 1)
	for _, m := range correct {
		// Nobody trusted round 7: Safe_r advances one legitimate end at
		// a time, and round 0 is the only one with proposals.
		if m.SafeRound() > 2 {
			t.Fatalf("%v Safe_r = %d, jumped", m.ID(), m.SafeRound())
		}
		for _, d := range m.Decisions() {
			if d.Contains(item(3, "future")) {
				t.Fatalf("%v decided the unsafe future value", m.ID())
			}
		}
	}
}

type rawSender struct {
	proto.Recorder
	id   ident.ProcessID
	outs func() []proto.Output
}

func (r *rawSender) ID() ident.ProcessID                            { return r.id }
func (r *rawSender) Start() []proto.Output                          { return r.outs() }
func (r *rawSender) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func TestSubscribersReceiveDecideNotifications(t *testing.T) {
	n, f := 4, 1
	seeds := map[int][]lattice.Item{0: {item(0, "v")}}
	client := &recorderMachine{id: 50}
	correct, all := buildCluster(t, n, f, seeds, nil, func(c *Config) {
		c.Subscribers = []ident.ProcessID{50}
	})
	all = append(all, client)
	faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 100_000})
	if len(client.decides) < len(correct) {
		t.Fatalf("client saw %d decide notifications, want >= %d", len(client.decides), len(correct))
	}
	for _, d := range client.decides {
		if !d.Value.Contains(item(0, "v")) {
			t.Fatalf("decide notification missing value: %v", d.Value)
		}
	}
}

type recorderMachine struct {
	proto.Recorder
	id      ident.ProcessID
	decides []msg.Decide
	cnfreps []msg.CnfRep
}

func (r *recorderMachine) ID() ident.ProcessID   { return r.id }
func (r *recorderMachine) Start() []proto.Output { return nil }
func (r *recorderMachine) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	switch v := m.(type) {
	case msg.Decide:
		r.decides = append(r.decides, v)
	case msg.CnfRep:
		r.cnfreps = append(r.cnfreps, v)
	}
	return nil
}

func TestConfirmationPlugin(t *testing.T) {
	// Direct-drive test of Alg 7: a confirmation for a quorum-acked
	// value is answered; one for a never-acked value stays pending.
	m := NewUnchecked(Config{Self: 0, N: 4, F: 1})
	v := lattice.FromStrings(0, "v")
	// Simulate a quorum of broadcast acks landing in Ack_history.
	for sender := 1; sender <= 3; sender++ {
		m.tally.Add(ident.ProcessID(sender), v, 0, 1, 0)
	}
	outs := m.Handle(50, msg.CnfReq{Value: v})
	if len(outs) != 1 {
		t.Fatalf("confirmed reply missing: %v", outs)
	}
	rep, ok := outs[0].Msg.(msg.CnfRep)
	if !ok || !rep.Value.Equal(v) {
		t.Fatalf("wrong reply %T", outs[0].Msg)
	}
	// Unknown value: buffered.
	w := lattice.FromStrings(9, "w")
	if outs := m.Handle(50, msg.CnfReq{Value: w}); len(outs) != 0 {
		t.Fatal("unconfirmed value must not be acked")
	}
	if len(m.confs) != 1 {
		t.Fatalf("pending confs = %d", len(m.confs))
	}
}

func TestConfirmationBufferCap(t *testing.T) {
	m := NewUnchecked(Config{Self: 0, N: 4, F: 1, MaxPendingConf: 1})
	m.Handle(50, msg.CnfReq{Value: lattice.FromStrings(1, "a")})
	m.Handle(50, msg.CnfReq{Value: lattice.FromStrings(1, "b")})
	if m.Rejected() == 0 {
		t.Fatal("over-cap confirmation must be rejected")
	}
}

func TestNewValueDeduplication(t *testing.T) {
	m := NewUnchecked(Config{Self: 0, N: 4, F: 1})
	cmd := item(9, "dup")
	m.Handle(9, msg.NewValue{Cmd: cmd})
	m.Handle(9, msg.NewValue{Cmd: cmd})
	if m.pendingV.Len() != 0 {
		// First NewValue triggers round start which consumes the batch.
		t.Fatalf("pending = %v", m.pendingV)
	}
	if !m.Proposed().Contains(cmd) {
		t.Fatal("value must be proposed")
	}
	if m.Inputs().Len() != 1 {
		t.Fatalf("inputs = %v", m.Inputs())
	}
}

func TestMessageComplexityPerDecision(t *testing.T) {
	// §6.4: O(f·n²) messages per proposer per decision. Sanity check
	// the growth and a generous constant at two sizes.
	perProc := map[int]int{}
	for _, n := range []int{4, 10} {
		f := (n - 1) / 3
		seeds := map[int][]lattice.Item{}
		for i := 0; i < n; i++ {
			seeds[i] = []lattice.Item{item(i, "v")}
		}
		correct, all := buildCluster(t, n, f, seeds, nil, nil)
		res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 100_000})
		ids := make([]ident.ProcessID, len(correct))
		for i, m := range correct {
			ids[i] = m.ID()
		}
		perProc[n] = res.Metrics.MaxSentByProc(ids)
		rounds := len(correct[0].Decisions())
		if rounds == 0 {
			t.Fatalf("n=%d: no decisions", n)
		}
		bound := 12 * (f + 1) * n * n * rounds
		if perProc[n] > bound {
			t.Fatalf("n=%d: per-process messages %d exceed %d", n, perProc[n], bound)
		}
	}
	if perProc[10] <= perProc[4] {
		t.Fatalf("message count did not grow: %v", perProc)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int, uint64) {
		seeds := map[int][]lattice.Item{}
		for i := 0; i < 7; i++ {
			seeds[i] = []lattice.Item{item(i, "v")}
		}
		_, all := buildCluster(t, 7, 2, seeds, nil, func(c *Config) { c.MinRounds = 2 })
		res := faultnet.New(all, faultnet.Options{
			Seed:  7,
			Delay: faultnet.Uniform{Lo: 1, Hi: 5},
		}).Run(faultnet.Limits{MaxTime: 1_000_000})
		return res.Metrics.SentTotal(), res.EndTime
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("replay diverged: (%d,%d) vs (%d,%d)", s1, t1, s2, t2)
	}
}

func TestRandomDelaysManySeeds(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seeds := map[int][]lattice.Item{}
		for i := 0; i < 4; i++ {
			seeds[i] = []lattice.Item{item(i, fmt.Sprintf("s%d", seed))}
		}
		correct, all := buildCluster(t, 4, 1, seeds, nil, func(c *Config) { c.MinRounds = 2 })
		res := faultnet.New(all, faultnet.Options{
			Seed:  seed,
			Delay: faultnet.Uniform{Lo: 1, Hi: 6},
		}).Run(faultnet.Limits{MaxTime: 1_000_000})
		if res.Undelivered != 0 {
			t.Fatalf("seed %d: did not quiesce", seed)
		}
		verifyGLA(t, correct, nil, 2)
	}
}

func TestValidationAndStateStrings(t *testing.T) {
	if _, err := New(Config{Self: 0, N: 3, F: 1}); err == nil {
		t.Fatal("must reject n<3f+1")
	}
	if NewRound.String() != "newround" || Disclosing.String() != "disclosing" || Proposing.String() != "proposing" {
		t.Fatal("state strings")
	}
	if State(9).String() != "state(9)" {
		t.Fatal("unknown state string")
	}
}
