package byz

import (
	"strings"
	"testing"

	"bgla/internal/check"
	"bgla/internal/core/gwts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/proto"
)

// TestGWTSDisclosureEquivocation attacks the round-0 disclosure of GWTS
// with a split-brain equivocator: reliable broadcast must prevent any
// two correct processes from absorbing different values for the same
// (source, round).
func TestGWTSDisclosureEquivocation(t *testing.T) {
	n, f := 4, 1
	for seed := int64(0); seed < 6; seed++ {
		var machines []proto.Machine
		var correct []*gwts.Machine
		for i := 0; i < n-1; i++ {
			id := ident.ProcessID(i)
			m, err := gwts.New(gwts.Config{
				Self: id, N: n, F: f,
				InitialValues: []lattice.Item{{Author: id, Body: "real"}},
			})
			if err != nil {
				t.Fatal(err)
			}
			correct = append(correct, m)
			machines = append(machines, m)
		}
		machines = append(machines, &Equivocator{
			Self:  3,
			Tag:   "gwts/disc/0",
			SideA: []ident.ProcessID{0},
			SideB: []ident.ProcessID{1, 2},
			ValA:  lattice.FromStrings(3, "split-A"),
			ValB:  lattice.FromStrings(3, "split-B"),
		})
		rec := faultnet.Received{}
		faultnet.New(machines, faultnet.Options{
			Seed:      seed,
			Delay:     faultnet.Uniform{Lo: 1, Hi: 3},
			Transcode: rec.Record,
		}).Run(faultnet.Limits{MaxTime: 100_000})

		// At most one split value may appear anywhere; decisions chain.
		seen := lattice.Empty()
		run := &check.GLARun{
			DecisionSeqs: map[ident.ProcessID][]lattice.Set{},
			Inputs:       map[ident.ProcessID]lattice.Set{},
		}
		for _, m := range correct {
			run.DecisionSeqs[m.ID()] = m.Decisions()
			run.Inputs[m.ID()] = rec.Of(m.ID(), lattice.Item{Author: m.ID(), Body: "real"})
			for _, d := range m.Decisions() {
				seen = seen.Union(d)
			}
		}
		hasA := seen.Contains(lattice.Item{Author: 3, Body: "split-A"})
		hasB := seen.Contains(lattice.Item{Author: 3, Body: "split-B"})
		if hasA && hasB {
			t.Fatalf("seed %d: both equivocated values decided — RBC agreement broken", seed)
		}
		var byzVals []lattice.Set
		if hasA {
			byzVals = append(byzVals, lattice.FromStrings(3, "split-A"))
		}
		if hasB {
			byzVals = append(byzVals, lattice.FromStrings(3, "split-B"))
		}
		run.ByzValues = byzVals
		if v := run.All(1); len(v) != 0 {
			t.Fatalf("seed %d: %s", seed, strings.Join(v, "; "))
		}
	}
}

// TestGWTSNackSpamRefinementsBounded verifies Lemma 10's per-round
// refinement bound survives a dedicated nack spammer.
func TestGWTSNackSpamRefinementsBounded(t *testing.T) {
	n, f := 4, 1
	var machines []proto.Machine
	var correct []*gwts.Machine
	for i := 0; i < n-1; i++ {
		id := ident.ProcessID(i)
		m, err := gwts.New(gwts.Config{
			Self: id, N: n, F: f,
			InitialValues: []lattice.Item{{Author: id, Body: "v"}},
			MinRounds:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
		correct = append(correct, m)
		machines = append(machines, m)
	}
	machines = append(machines, &NackSpammer{Self: 3})
	res := faultnet.New(machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 100_000})
	rounds := 0
	for _, m := range correct {
		if r := len(m.Decisions()); r > rounds {
			rounds = r
		}
		if len(m.Decisions()) == 0 {
			t.Fatalf("%v starved by nack spam", m.ID())
		}
	}
	for _, m := range correct {
		// Total refinements across the run bounded by f per round.
		if got := res.Refinements(m.ID()); got > f*rounds {
			t.Fatalf("%v refined %d times over %d rounds (> f per round)", m.ID(), got, rounds)
		}
	}
}
