package byz

import (
	"fmt"
	"math/rand"

	"bgla/internal/check"
	"bgla/internal/core"
	"bgla/internal/core/wts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// TheoremOneOutcome reports the result of the Theorem 1 lower-bound
// scenario: which correct processes decided and whether safety broke.
type TheoremOneOutcome struct {
	N, FActual, FConfig     int
	DecidedCount, CorrectCt int
	Incomparable            bool // safety violation observed
	Starved                 bool // some correct process never decided
	Violations              []string
}

// String summarizes the outcome for tables.
func (o TheoremOneOutcome) String() string {
	switch {
	case o.Incomparable:
		return "SAFETY VIOLATED (incomparable decisions)"
	case o.Starved:
		return fmt.Sprintf("LIVENESS LOST (%d/%d decided)", o.DecidedCount, o.CorrectCt)
	default:
		return "attack failed (agreement preserved)"
	}
}

// RunTheoremOne executes the partition-plus-equivocation attack behind
// Theorem 1. The correct processes are split into two groups whose
// mutual links stay silent until healAt; the fActual colluding
// adversaries run split-brain disclosure with mirror support and ack
// every proposal. The correct processes are configured for
// f = ⌊(n-1)/3⌋, the most they may assume. With fActual > ⌊(n-1)/3⌋
// (i.e. effectively n ≤ 3·fActual) the attack yields incomparable
// decisions or starvation; at n ≥ 3·fActual+1 it must fail.
func RunTheoremOne(n, fActual int, healAt uint64, seed int64) TheoremOneOutcome {
	fConfig := core.MaxFaulty(n)
	correctCount := n - fActual
	var correct []*wts.Machine
	var machines []proto.Machine
	var sideA, sideB []ident.ProcessID
	for i := 0; i < correctCount; i++ {
		id := ident.ProcessID(i)
		if i < (correctCount+1)/2 {
			sideA = append(sideA, id)
		} else {
			sideB = append(sideB, id)
		}
		m := wts.NewUnchecked(wts.Config{
			Self: id, N: n, F: fConfig,
			Proposal: lattice.FromStrings(id, "v"),
		})
		correct = append(correct, m)
		machines = append(machines, m)
	}
	for i := correctCount; i < n; i++ {
		id := ident.ProcessID(i)
		machines = append(machines, &Equivocator{
			Self:  id,
			Tag:   wts.DiscTag,
			SideA: sideA,
			SideB: sideB,
			ValA:  lattice.FromStrings(id, "A"),
			ValB:  lattice.FromStrings(id, "B"),
		})
	}
	// Partition: cross-group messages sent before healAt are held back
	// until the heal; afterwards the network is uniform again.
	cross := map[ident.ProcessID]int{}
	for _, a := range sideA {
		cross[a] = 1
	}
	for _, b := range sideB {
		cross[b] = 2
	}
	delay := faultnet.DelayFunc(func(from, to ident.ProcessID, m msg.Msg, now uint64, _ *rand.Rand) uint64 {
		if cross[from] != 0 && cross[to] != 0 && cross[from] != cross[to] && now < healAt {
			return healAt - now + 1
		}
		return 1
	})
	res := faultnet.New(machines, faultnet.Options{
		Seed:  seed,
		Delay: delay,
	}).Run(faultnet.Limits{MaxTime: healAt + 1000})

	out := TheoremOneOutcome{N: n, FActual: fActual, FConfig: fConfig, CorrectCt: correctCount}
	decisions := map[ident.ProcessID]lattice.Set{}
	for _, m := range correct {
		if d, ok := m.Decision(); ok {
			decisions[m.ID()] = d
			out.DecidedCount++
		}
	}
	_ = res
	out.Starved = out.DecidedCount < out.CorrectCt
	run := &check.LARun{Decisions: decisions}
	out.Violations = run.Comparability()
	out.Incomparable = len(out.Violations) > 0
	return out
}
