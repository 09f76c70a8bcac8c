// Byzantine: an attack gallery. Each scenario arms one adversary from
// the paper's threat analysis against a WTS cluster and shows the
// defense holding — then runs the Theorem 1 lower-bound attack where no
// defense can exist (n ≤ 3f) and shows agreement actually breaking.
package main

import (
	"fmt"
	"log"

	"bgla/internal/byz"
	"bgla/internal/check"
	"bgla/internal/core/wts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/proto"
)

func main() {
	scenarios := []struct {
		name    string
		defense string
		mk      func() proto.Machine
	}{
		{"silent process", "quorums of n-f never wait for it", func() proto.Machine {
			return &byz.Mute{Self: 3}
		}},
		{"junk flooder", "typed decoding + buffer caps drop garbage", func() proto.Machine {
			return &byz.JunkFlooder{Self: 3}
		}},
		{"disclosure equivocator", "reliable broadcast delivers at most one value per process", func() proto.Machine {
			return &byz.Equivocator{
				Self: 3, Tag: wts.DiscTag,
				SideA: []ident.ProcessID{0}, SideB: []ident.ProcessID{1, 2},
				ValA: lattice.FromStrings(3, "A"), ValB: lattice.FromStrings(3, "B"),
			}
		}},
		{"nack spammer", "refinements bounded by f (Lemma 3)", func() proto.Machine {
			return &byz.NackSpammer{Self: 3}
		}},
		{"ack-everything", "decisions carry only quorum-committed safe sets", func() proto.Machine {
			return &byz.AckAll{Self: 3}
		}},
	}

	for _, sc := range scenarios {
		fmt.Printf("attack: %-24s defense: %s\n", sc.name, sc.defense)
		runScenario(sc.name, sc.mk())
	}

	fmt.Println()
	fmt.Println("and the impossible regime (Theorem 1): n=4 facing 2 colluding adversaries (4 <= 3*2)")
	out := byz.RunTheoremOne(4, 2, 500, 1)
	fmt.Printf("  partition + equivocation: %s\n", out)
	for _, v := range out.Violations {
		fmt.Printf("    %s\n", v)
	}
	fmt.Println("  with n = 3f+1 the same attack fails:")
	ok := byz.RunTheoremOne(7, 2, 40, 1)
	fmt.Printf("  n=7 vs 2 adversaries: %s\n", ok)
}

func runScenario(name string, adversary proto.Machine) {
	n, f := 4, 1
	var machines []proto.Machine
	var correct []*wts.Machine
	for i := 0; i < n-1; i++ {
		id := ident.ProcessID(i)
		m, err := wts.New(wts.Config{Self: id, N: n, F: f, Proposal: lattice.FromStrings(id, "v")})
		if err != nil {
			log.Fatal(err)
		}
		correct = append(correct, m)
		machines = append(machines, m)
	}
	machines = append(machines, adversary)
	faultnet.New(machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000, MaxDeliveries: 2_000_000})

	run := &check.LARun{
		Proposals: map[ident.ProcessID]lattice.Set{},
		Decisions: map[ident.ProcessID]lattice.Set{},
		F:         f,
		ByzValues: []lattice.Set{lattice.FromStrings(3, "A"), lattice.FromStrings(3, "B")},
	}
	for _, m := range correct {
		run.Proposals[m.ID()] = lattice.FromStrings(m.ID(), "v")
		if d, ok := m.Decision(); ok {
			run.Decisions[m.ID()] = d
		}
	}
	// The equivocator's two values exceed f=1 if both appeared; the
	// checker flags that, so keep only values actually decided.
	seen := lattice.Empty()
	for _, d := range run.Decisions {
		seen = seen.Union(d)
	}
	var byzVals []lattice.Set
	for _, v := range run.ByzValues {
		if v.SubsetOf(seen) {
			byzVals = append(byzVals, v)
		}
	}
	run.ByzValues = byzVals
	if v := run.All(); len(v) != 0 {
		log.Fatalf("  UNEXPECTED violations under %s: %v", name, v)
	}
	fmt.Printf("  -> all %d correct processes decided; specification intact\n", len(correct))
}
