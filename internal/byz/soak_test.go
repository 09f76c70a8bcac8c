package byz

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"bgla/internal/check"
	"bgla/internal/core/gwts"
	"bgla/internal/core/sbs"
	"bgla/internal/core/wts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

// seedFlag shifts every soak sweep's seed range for replay and CI seed
// rotation: a failure report names the exact seed, and
// `go test -run <Test> -seed=<n> ./internal/byz` replays it (the
// sweeps run seeds [n, n+count)). Sweeps honor -short by shrinking.
var seedFlag = flag.Int64("seed", 0, "base seed for the soak sweeps (failures log the exact failing seed)")

// mkAdversary builds adversary #k of the rotating cast for process id.
func mkAdversary(k int, id ident.ProcessID, seed int64) proto.Machine {
	switch k % 5 {
	case 0:
		return &Mute{Self: id}
	case 1:
		return &JunkFlooder{Self: id}
	case 2:
		return &NackSpammer{Self: id}
	case 3:
		return &AckAll{Self: id}
	default:
		return NewRandom(id, seed)
	}
}

// TestWTSSoakAcrossSeedsAndAdversaries sweeps seeds, delay ranges and
// adversary types; the LA specification must hold in every run.
func TestWTSSoakAcrossSeedsAndAdversaries(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		for adv := 0; adv < 5; adv++ {
			for seed := *seedFlag; seed < *seedFlag+int64(seeds); seed++ {
				var machines []proto.Machine
				var correct []*wts.Machine
				for i := 0; i < tc.n-tc.f; i++ {
					id := ident.ProcessID(i)
					m, err := wts.New(wts.Config{Self: id, N: tc.n, F: tc.f,
						Proposal: lattice.FromStrings(id, "v")})
					if err != nil {
						t.Fatal(err)
					}
					correct = append(correct, m)
					machines = append(machines, m)
				}
				for i := tc.n - tc.f; i < tc.n; i++ {
					machines = append(machines, mkAdversary(adv, ident.ProcessID(i), seed))
				}
				faultnet.New(machines, faultnet.Options{
					Seed:  seed,
					Delay: faultnet.Uniform{Lo: 1, Hi: 1 + uint64(seed%5)*2},
				}).Run(faultnet.Limits{MaxTime: 50_000, MaxDeliveries: 3_000_000})
				run := &check.LARun{
					Proposals: map[ident.ProcessID]lattice.Set{},
					Decisions: map[ident.ProcessID]lattice.Set{},
					F:         tc.f,
				}
				for _, m := range correct {
					run.Proposals[m.ID()] = lattice.FromStrings(m.ID(), "v")
					if d, ok := m.Decision(); ok {
						run.Decisions[m.ID()] = d
					}
				}
				// NackSpammer/AckAll/Random never disclose values, so
				// no byz values can legitimately appear.
				if v := run.All(); len(v) != 0 {
					t.Fatalf("n=%d f=%d adv=%d seed=%d: %s",
						tc.n, tc.f, adv, seed, strings.Join(v, "; "))
				}
			}
		}
	}
}

// TestGWTSSoakWithAdversaries runs multi-round GWTS against each
// adversary type; the generalized specification must hold and the runs
// must stay live.
func TestGWTSSoakWithAdversaries(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	n, f := 4, 1
	for adv := 0; adv < 5; adv++ {
		for seed := *seedFlag; seed < *seedFlag+int64(seeds); seed++ {
			var machines []proto.Machine
			var correct []*gwts.Machine
			for i := 0; i < n-f; i++ {
				id := ident.ProcessID(i)
				m, err := gwts.New(gwts.Config{
					Self: id, N: n, F: f,
					InitialValues: []lattice.Item{{Author: id, Body: fmt.Sprintf("s%d", seed)}},
					MinRounds:     2,
				})
				if err != nil {
					t.Fatal(err)
				}
				correct = append(correct, m)
				machines = append(machines, m)
			}
			machines = append(machines, mkAdversary(adv, ident.ProcessID(n-1), seed))
			rec := faultnet.Received{}
			faultnet.New(machines, faultnet.Options{
				Seed:      seed,
				Delay:     faultnet.Uniform{Lo: 1, Hi: 4},
				Transcode: rec.Record,
			}).Run(faultnet.Limits{MaxTime: 100_000, MaxDeliveries: 3_000_000})
			run := &check.GLARun{
				DecisionSeqs: map[ident.ProcessID][]lattice.Set{},
				Inputs:       map[ident.ProcessID]lattice.Set{},
			}
			for _, m := range correct {
				run.DecisionSeqs[m.ID()] = m.Decisions()
				run.Inputs[m.ID()] = rec.Of(m.ID(), lattice.Item{Author: m.ID(), Body: fmt.Sprintf("s%d", seed)})
			}
			if v := run.All(1); len(v) != 0 {
				t.Fatalf("adv=%d seed=%d: %s", adv, seed, strings.Join(v, "; "))
			}
		}
	}
}

// TestSbSSoakWithAdversaries runs the signature-based protocol against
// the adversary cast (who cannot forge signatures).
func TestSbSSoakWithAdversaries(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	n, f := 4, 1
	for adv := 0; adv < 5; adv++ {
		for seed := *seedFlag; seed < *seedFlag+int64(seeds); seed++ {
			kc := sig.NewSim(n, seed)
			var machines []proto.Machine
			var correct []*sbs.Machine
			for i := 0; i < n-f; i++ {
				id := ident.ProcessID(i)
				m, err := sbs.New(sbs.Config{Self: id, N: n, F: f,
					Proposal: lattice.FromStrings(id, "v"), Keychain: kc})
				if err != nil {
					t.Fatal(err)
				}
				correct = append(correct, m)
				machines = append(machines, m)
			}
			machines = append(machines, mkAdversary(adv, ident.ProcessID(n-1), seed))
			faultnet.New(machines, faultnet.Options{
				Seed:  seed,
				Delay: faultnet.Uniform{Lo: 1, Hi: 3},
			}).Run(faultnet.Limits{MaxTime: 50_000, MaxDeliveries: 3_000_000})
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
			if v := run.All(); len(v) != 0 {
				t.Fatalf("adv=%d seed=%d: %s", adv, seed, strings.Join(v, "; "))
			}
		}
	}
}

// TestQuickComparabilityUnderRandomSchedules is a property test: for
// arbitrary seeds and delay spreads, WTS decisions of correct processes
// are pairwise comparable (safety never depends on scheduling).
func TestQuickComparabilityUnderRandomSchedules(t *testing.T) {
	prop := func(seed int64, spread uint8) bool {
		n, f := 4, 1
		var machines []proto.Machine
		var correct []*wts.Machine
		for i := 0; i < n; i++ {
			id := ident.ProcessID(i)
			m, err := wts.New(wts.Config{Self: id, N: n, F: f,
				Proposal: lattice.FromStrings(id, "v")})
			if err != nil {
				return false
			}
			correct = append(correct, m)
			machines = append(machines, m)
		}
		faultnet.New(machines, faultnet.Options{
			Seed:  seed,
			Delay: faultnet.Uniform{Lo: 1, Hi: 1 + uint64(spread%17)},
		}).Run(faultnet.Limits{MaxTime: 100_000})
		var decisions []lattice.Set
		for _, m := range correct {
			d, ok := m.Decision()
			if !ok {
				return false // liveness must hold too
			}
			decisions = append(decisions, d)
		}
		for i := range decisions {
			for j := i + 1; j < len(decisions); j++ {
				if !decisions[i].Comparable(decisions[j]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
