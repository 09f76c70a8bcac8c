package exp

import (
	"math/rand"

	"bgla/internal/byz"
	"bgla/internal/check"
	"bgla/internal/core/gwts"
	"bgla/internal/core/wts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// Ablations (E12) removes one defense at a time and shows the attack it
// was guarding against succeeding:
//
//	(a) SAFE() off  -> undisclosed Byzantine junk enters decisions
//	    (Non-Triviality broken);
//	(b) reliable broadcast off -> a disclosure equivocator starves the
//	    minority partition (wait-freedom broken);
//	(c) Safe_r gate off -> round-racing spam inflates refinements past
//	    the Lemma 3/10 bound.
func Ablations() *Table {
	t := &Table{
		ID:      "E12",
		Title:   "defense ablations — what each mechanism is for",
		Columns: []string{"ablation", "defense removed", "attack", "with defense", "without defense"},
		Pass:    true,
	}

	// (a) SAFE() predicate.
	withSafe := runSafeAblation(false)
	withoutSafe := runSafeAblation(true)
	if withSafe != 0 || withoutSafe == 0 {
		t.Pass = false
	}
	t.AddRow("E12a", "SAFE() buffering (Alg 1 l.35)", "undisclosed-value ack_req flood",
		plural(withSafe, "violation"), plural(withoutSafe, "violation"))

	// (b) disclosure reliable broadcast.
	withRBC := runRBCAblation(false)
	withoutRBC := runRBCAblation(true)
	if withRBC != 0 || withoutRBC == 0 {
		t.Pass = false
	}
	t.AddRow("E12b", "Byzantine reliable broadcast (§5)", "split-brain disclosure",
		plural(withRBC, "starved proc"), plural(withoutRBC, "starved proc"))

	// (c) GWTS Safe_r round gate: acceptors must not serve rounds beyond
	// Safe_r, so values a racer "proposes" for future rounds can never
	// enter a round-0 decision (the containment behind Lemma 10).
	withGate := runGateAblation(false)
	withoutGate := runGateAblation(true)
	if withGate != 0 || withoutGate == 0 {
		t.Pass = false
	}
	t.AddRow("E12c", "acceptor Safe_r gate (Alg 4 l.6)", "round-racing value spam",
		plural(withGate, "future-round value")+" in round-0 decisions",
		plural(withoutGate, "future-round value")+" in round-0 decisions")

	t.Note("each removed defense admits exactly the attack the paper built it against")
	return t
}

func plural(n int, unit string) string {
	if n == 1 {
		return "1 " + unit
	}
	return itoa(n) + " " + unit + "s"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// junkAcker floods acceptors with ack_reqs containing undisclosed items
// and acks everything, hoping the junk leaks into accepted sets.
type junkAcker struct {
	proto.Recorder
	self ident.ProcessID
}

func (j *junkAcker) ID() ident.ProcessID { return j.self }
func (j *junkAcker) Start() []proto.Output {
	junk := lattice.FromStrings(99, "undisclosed-A", "undisclosed-B")
	return []proto.Output{proto.Bcast(msg.AckReq{Proposed: junk, TS: 0, Round: 0})}
}
func (j *junkAcker) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	if req, ok := m.(msg.AckReq); ok {
		return []proto.Output{proto.Send(from, msg.Ack{Accepted: req.Proposed, TS: req.TS, Round: req.Round})}
	}
	return nil
}

// runSafeAblation returns the number of LA safety violations (mostly
// Non-Triviality) observed with/without the SAFE predicate.
func runSafeAblation(disable bool) int {
	n, f := 4, 1
	var machines []proto.Machine
	var correct []*wts.Machine
	for i := 0; i < n-1; i++ {
		id := ident.ProcessID(i)
		m := wts.NewUnchecked(wts.Config{
			Self: id, N: n, F: f,
			Proposal:         lattice.FromStrings(id, "v"),
			DisableSafeCheck: disable,
		})
		correct = append(correct, m)
		machines = append(machines, m)
	}
	machines = append(machines, &junkAcker{self: 3})
	faultnet.New(machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000})
	run := &check.LARun{
		Proposals: map[ident.ProcessID]lattice.Set{},
		Decisions: map[ident.ProcessID]lattice.Set{},
		F:         f,
	}
	for _, m := range correct {
		run.Proposals[m.ID()] = lattice.FromStrings(m.ID(), "v")
		if d, ok := m.Decision(); ok {
			run.Decisions[m.ID()] = d
		}
	}
	return len(run.All())
}

// runRBCAblation returns the number of starved correct processes when a
// disclosure equivocator splits a 7-process cluster, with RBC on/off.
// The disclosures of p3 and p4 are slowed so the equivocated values land
// inside everyone's first n-f disclosures — the window the reliable
// broadcast exists to protect.
func runRBCAblation(disable bool) int {
	n, f := 7, 2
	sideA := []ident.ProcessID{0, 1, 2}
	sideB := []ident.ProcessID{3, 4}
	var machines []proto.Machine
	var correct []*wts.Machine
	for i := 0; i < 5; i++ {
		id := ident.ProcessID(i)
		m := wts.NewUnchecked(wts.Config{
			Self: id, N: n, F: f,
			Proposal:   lattice.FromStrings(id, "v"),
			DisableRBC: disable,
		})
		correct = append(correct, m)
		machines = append(machines, m)
	}
	for i := 5; i < 7; i++ {
		id := ident.ProcessID(i)
		if disable {
			machines = append(machines, &directEquivocator{
				self: id, sideA: sideA, sideB: sideB,
				valA: lattice.FromStrings(id, "A"), valB: lattice.FromStrings(id, "B"),
			})
		} else {
			machines = append(machines, &byz.Equivocator{
				Self: id, Tag: wts.DiscTag,
				SideA: sideA, SideB: sideB,
				ValA: lattice.FromStrings(id, "A"), ValB: lattice.FromStrings(id, "B"),
			})
		}
	}
	slowDisclosers := map[ident.ProcessID]bool{3: true, 4: true}
	delay := faultnet.DelayFunc(func(from, to ident.ProcessID, m msg.Msg, now uint64, _ *rand.Rand) uint64 {
		if slowDisclosers[from] {
			switch m.Kind() {
			case msg.KindDisclosure, msg.KindRBCSend:
				return 8
			}
		}
		return 1
	})
	faultnet.New(machines, faultnet.Options{Delay: delay}).Run(faultnet.Limits{MaxTime: 10_000})
	starved := 0
	for _, m := range correct {
		if _, ok := m.Decision(); !ok {
			starved++
		}
	}
	return starved
}

// directEquivocator sends different plain disclosures to the two sides
// (only possible when RBC is ablated) and acks everything.
type directEquivocator struct {
	proto.Recorder
	self         ident.ProcessID
	sideA, sideB []ident.ProcessID
	valA, valB   lattice.Set
}

func (d *directEquivocator) ID() ident.ProcessID { return d.self }
func (d *directEquivocator) Start() []proto.Output {
	var outs []proto.Output
	for _, p := range d.sideA {
		outs = append(outs, proto.Send(p, msg.Disclosure{Round: 0, Value: d.valA}))
	}
	for _, p := range d.sideB {
		outs = append(outs, proto.Send(p, msg.Disclosure{Round: 0, Value: d.valB}))
	}
	return outs
}
func (d *directEquivocator) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	if req, ok := m.(msg.AckReq); ok {
		return []proto.Output{proto.Send(from, msg.Ack{Accepted: req.Proposed, TS: req.TS, Round: req.Round})}
	}
	return nil
}

// runGateAblation counts values the racer attached to FUTURE rounds
// (spam-1..spam-5) that leaked into correct round-0 decisions, with the
// Safe_r gate on/off. With the gate, future-round requests stay
// buffered and nothing leaks; without it, acceptors absorb them and
// nacks inject them into round-0 proposals.
func runGateAblation(disable bool) int {
	n, f := 4, 1
	var machines []proto.Machine
	var correct []*gwts.Machine
	for i := 0; i < n-1; i++ {
		id := ident.ProcessID(i)
		m, err := gwts.New(gwts.Config{
			Self: id, N: n, F: f,
			InitialValues:    []lattice.Item{{Author: id, Body: "v"}},
			DisableRoundGate: disable,
		})
		if err != nil {
			panic(err)
		}
		correct = append(correct, m)
		machines = append(machines, m)
	}
	// The racer speaks only for FUTURE rounds (1..5): nothing it says is
	// legitimate round-0 material.
	machines = append(machines, &roundRacer{self: 3, firstRound: 1, rounds: 5})
	faultnet.New(machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 3_000, MaxDeliveries: 2_000_000})
	leaked := 0
	for _, m := range correct {
		seq := m.Decisions()
		if len(seq) == 0 {
			continue
		}
		count := 0
		for _, it := range seq[0].Items() {
			if it.Author == 3 {
				count++ // a future-round racer value inside round 0
			}
		}
		if count > leaked {
			leaked = count
		}
	}
	return leaked
}

// roundRacer discloses fresh values for rounds firstRound..firstRound+
// rounds-1 at once and sends matching ack requests, simulating the §6.2
// round-racing proposer.
type roundRacer struct {
	proto.Recorder
	self       ident.ProcessID
	firstRound int
	rounds     int
}

func (r *roundRacer) ID() ident.ProcessID { return r.self }
func (r *roundRacer) Start() []proto.Output {
	var outs []proto.Output
	for k := r.firstRound; k < r.firstRound+r.rounds; k++ {
		val := lattice.FromStrings(r.self, "spam-"+itoa(k))
		outs = append(outs, proto.Bcast(msg.RBCSend{
			Src: r.self, Tag: "gwts/disc/" + itoa(k),
			Payload: msg.Disclosure{Round: k, Value: val},
		}))
		outs = append(outs, proto.Bcast(msg.AckReq{Proposed: val, TS: uint32(10 + k), Round: k}))
	}
	return outs
}
func (r *roundRacer) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }
