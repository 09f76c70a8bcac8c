package byz

import (
	"strings"
	"testing"

	"bgla/internal/check"
	"bgla/internal/core/gwts"
	"bgla/internal/core/wts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/proto"
)

// wtsCluster builds correct WTS machines around the given adversaries.
func wtsCluster(t *testing.T, n, f int, adversaries []proto.Machine) ([]*wts.Machine, []proto.Machine) {
	t.Helper()
	byzIDs := ident.NewSet()
	for _, b := range adversaries {
		byzIDs.Add(b.ID())
	}
	var correct []*wts.Machine
	var all []proto.Machine
	for i := 0; i < n; i++ {
		id := ident.ProcessID(i)
		if byzIDs.Has(id) {
			continue
		}
		m, err := wts.New(wts.Config{Self: id, N: n, F: f, Proposal: lattice.FromStrings(id, "v")})
		if err != nil {
			t.Fatal(err)
		}
		correct = append(correct, m)
		all = append(all, m)
	}
	all = append(all, adversaries...)
	return correct, all
}

func checkWTS(t *testing.T, correct []*wts.Machine, f int, byzValues []lattice.Set, wantLive bool, label string) {
	t.Helper()
	run := &check.LARun{
		Proposals: map[ident.ProcessID]lattice.Set{},
		Decisions: map[ident.ProcessID]lattice.Set{},
		ByzValues: byzValues,
		F:         f,
	}
	for _, m := range correct {
		run.Proposals[m.ID()] = lattice.FromStrings(m.ID(), "v")
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
		t.Fatalf("%s: violations: %s", label, strings.Join(v, "; "))
	}
}

func TestWTSWithstandsEachAdversary(t *testing.T) {
	n, f := 4, 1
	cases := map[string]func() proto.Machine{
		"mute": func() proto.Machine { return &Mute{Self: 3} },
		"junk": func() proto.Machine { return &JunkFlooder{Self: 3} },
		"equivocator": func() proto.Machine {
			return &Equivocator{
				Self: 3, Tag: wts.DiscTag,
				SideA: []ident.ProcessID{0}, SideB: []ident.ProcessID{1, 2},
				ValA: lattice.FromStrings(3, "A"), ValB: lattice.FromStrings(3, "B"),
			}
		},
		"nackspam": func() proto.Machine { return &NackSpammer{Self: 3} },
		"ackall":   func() proto.Machine { return &AckAll{Self: 3} },
		"random":   func() proto.Machine { return NewRandom(3, 99) },
	}
	for name, mk := range cases {
		correct, all := wtsCluster(t, n, f, []proto.Machine{mk()})
		res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000, MaxDeliveries: 2_000_000})
		ids := make([]ident.ProcessID, len(correct))
		for i, m := range correct {
			ids[i] = m.ID()
		}
		if _, ok := res.MaxDecisionTime(ids); !ok {
			t.Fatalf("%s: correct processes blocked", name)
		}
		// Byzantine disclosure values may legitimately enter decisions:
		// attribute anything beyond correct proposals to the byz budget.
		byzValues := []lattice.Set{
			lattice.FromStrings(3, "A"), // only relevant for the equivocator
		}
		if name == "equivocator" {
			// RBC agreement means at most one side's value was delivered;
			// determine which (if any) appeared.
			seen := lattice.Empty()
			for _, m := range correct {
				if d, ok := m.Decision(); ok {
					seen = seen.Union(d)
				}
			}
			switch {
			case seen.Contains(lattice.Item{Author: 3, Body: "A"}) && seen.Contains(lattice.Item{Author: 3, Body: "B"}):
				t.Fatal("equivocator: both split values delivered — RBC agreement broken")
			case seen.Contains(lattice.Item{Author: 3, Body: "B"}):
				byzValues = []lattice.Set{lattice.FromStrings(3, "B")}
			}
		}
		checkWTS(t, correct, f, byzValues, true, name)
	}
}

func TestNackSpammerCannotStarve(t *testing.T) {
	// Refinements stay bounded by f even under a dedicated nack spammer
	// (its nacks carry only already-disclosed values, so they stop
	// adding anything after at most f merges).
	n, f := 7, 2
	adv := []proto.Machine{&NackSpammer{Self: 5}, &NackSpammer{Self: 6}}
	correct, all := wtsCluster(t, n, f, adv)
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 100_000})
	for _, m := range correct {
		if r := res.Refinements(m.ID()); r > f {
			t.Fatalf("%v refined %d > f under nack spam", m.ID(), r)
		}
		if _, ok := m.Decision(); !ok {
			t.Fatalf("%v starved by nack spam", m.ID())
		}
	}
}

func TestTheoremOneAttackSucceedsBelowBound(t *testing.T) {
	// n=4 with 2 colluding adversaries: the correct processes can only
	// assume f=1 (4 = 3·1+1) but face fActual=2 > 1, equivalent to
	// running with n ≤ 3f. The partition attack must break safety or
	// starve someone.
	out := RunTheoremOne(4, 2, 1000, 1)
	if !out.Incomparable && !out.Starved {
		t.Fatalf("attack failed below the bound: %+v", out)
	}
	if !out.Incomparable {
		t.Fatalf("expected incomparable decisions at n=4, fActual=2: %+v", out)
	}
}

func TestTheoremOneMinimalThreeProcesses(t *testing.T) {
	// The literal 3-process, 1-Byzantine case of the proof: WTS cannot
	// make both correct processes decide while the partition holds.
	out := RunTheoremOne(3, 1, 1000, 1)
	if !out.Incomparable && !out.Starved {
		t.Fatalf("attack failed at n=3, f=1: %+v", out)
	}
}

func TestTheoremOneAttackFailsAtBound(t *testing.T) {
	// Same attack with n = 3·fActual+1: agreement must survive.
	for _, tc := range []struct{ n, fActual int }{{4, 1}, {7, 2}} {
		out := RunTheoremOne(tc.n, tc.fActual, 40, 1)
		if out.Incomparable {
			t.Fatalf("n=%d fActual=%d: safety violated above the bound: %v",
				tc.n, tc.fActual, out.Violations)
		}
		if out.Starved {
			t.Fatalf("n=%d fActual=%d: starvation above the bound (%d/%d)",
				tc.n, tc.fActual, out.DecidedCount, out.CorrectCt)
		}
	}
}

func TestTheoremOneOutcomeString(t *testing.T) {
	if !strings.Contains((TheoremOneOutcome{Incomparable: true}).String(), "SAFETY") {
		t.Fatal("String for safety violation")
	}
	if !strings.Contains((TheoremOneOutcome{Starved: true}).String(), "LIVENESS") {
		t.Fatal("String for starvation")
	}
	if !strings.Contains((TheoremOneOutcome{}).String(), "failed") {
		t.Fatal("String for failed attack")
	}
}

func TestRoundSpammerContained(t *testing.T) {
	// A GWTS round spammer keeps opening empty rounds; correct
	// processes still decide every real value and stay comparable. The
	// run is horizon-bounded (the spammer never lets it quiesce).
	n, f := 4, 1
	var correct []*gwts.Machine
	var all []proto.Machine
	for i := 0; i < n-1; i++ {
		m, err := gwts.New(gwts.Config{
			Self: ident.ProcessID(i), N: n, F: f,
			InitialValues: []lattice.Item{{Author: ident.ProcessID(i), Body: "real"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		correct = append(correct, m)
		all = append(all, m)
	}
	spammer := &RoundSpammer{
		Self: 3,
		TagOf: func(round int) string {
			return "gwts/disc/" + itoa(round)
		},
		Val:      lattice.FromStrings(3, "spam"),
		MaxRound: 30,
	}
	all = append(all, spammer)
	faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 4000, MaxDeliveries: 3_000_000})
	run := &check.GLARun{
		DecisionSeqs: map[ident.ProcessID][]lattice.Set{},
		Inputs:       map[ident.ProcessID]lattice.Set{},
		ByzValues:    []lattice.Set{lattice.FromStrings(3, "spam")},
	}
	for _, m := range correct {
		run.DecisionSeqs[m.ID()] = m.Decisions()
		run.Inputs[m.ID()] = m.Inputs()
	}
	if v := run.All(1); len(v) != 0 {
		t.Fatalf("round spammer broke GWTS: %s", strings.Join(v, "; "))
	}
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
