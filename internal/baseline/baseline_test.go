package baseline

import (
	"strings"
	"testing"

	"bgla/internal/check"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

type crashed struct {
	proto.Recorder
	id ident.ProcessID
}

func (c *crashed) ID() ident.ProcessID                            { return c.id }
func (c *crashed) Start() []proto.Output                          { return nil }
func (c *crashed) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func cluster(t *testing.T, n, crashes int) ([]*Machine, []proto.Machine) {
	t.Helper()
	var correct []*Machine
	var all []proto.Machine
	for i := 0; i < n-crashes; i++ {
		m, err := New(Config{Self: ident.ProcessID(i), N: n, Proposal: lattice.FromStrings(ident.ProcessID(i), "v")})
		if err != nil {
			t.Fatal(err)
		}
		correct = append(correct, m)
		all = append(all, m)
	}
	for i := n - crashes; i < n; i++ {
		all = append(all, &crashed{id: ident.ProcessID(i)})
	}
	return correct, all
}

func verify(t *testing.T, correct []*Machine, wantLive bool) {
	t.Helper()
	run := &check.LARun{
		Proposals: map[ident.ProcessID]lattice.Set{},
		Decisions: map[ident.ProcessID]lattice.Set{},
	}
	for _, m := range correct {
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
		t.Fatalf("violations: %s", strings.Join(v, "; "))
	}
}

func TestAllCorrectDecide(t *testing.T) {
	for _, n := range []int{3, 5, 9} {
		correct, all := cluster(t, n, 0)
		res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000})
		for _, m := range correct {
			if _, ok := m.Decision(); !ok {
				t.Fatalf("n=%d: %v blocked", n, m.ID())
			}
		}
		if res.Undelivered != 0 {
			t.Fatalf("n=%d: did not quiesce", n)
		}
		verify(t, correct, true)
	}
}

func TestToleratesMinorityCrashes(t *testing.T) {
	for _, tc := range []struct{ n, crashes int }{{5, 2}, {9, 4}, {4, 1}} {
		correct, all := cluster(t, tc.n, tc.crashes)
		faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000})
		for _, m := range correct {
			if _, ok := m.Decision(); !ok {
				t.Fatalf("n=%d crashes=%d: %v blocked", tc.n, tc.crashes, m.ID())
			}
		}
		verify(t, correct, true)
	}
}

func TestBlocksWithoutMajority(t *testing.T) {
	// With n/2+ crashes the quorum is unreachable: no decision (the
	// baseline's known limit; Byzantine tolerance is a different regime).
	correct, all := cluster(t, 4, 2)
	faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000})
	for _, m := range correct {
		if _, ok := m.Decision(); ok {
			t.Fatal("decided without majority")
		}
	}
	verify(t, correct, false)
}

func TestCheaperThanByzantineProtocol(t *testing.T) {
	// The baseline has no RBC: per-process messages are O(n), far below
	// WTS's O(n²) — sanity check the constant.
	n := 16
	correct, all := cluster(t, n, 0)
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 10_000})
	ids := make([]ident.ProcessID, len(correct))
	for i, m := range correct {
		ids[i] = m.ID()
	}
	if got := res.Metrics.MaxSentByProc(ids); got > 8*n {
		t.Fatalf("baseline per-process messages %d not linear", got)
	}
}

func TestRefinementsUnderStagger(t *testing.T) {
	correct, all := cluster(t, 5, 0)
	offsets := map[ident.ProcessID]uint64{}
	for i := 0; i < 5; i++ {
		offsets[ident.ProcessID(i)] = uint64(2 * i)
	}
	faultnet.New(all, faultnet.Options{
		Delay: faultnet.SenderStagger{Base: faultnet.Fixed(1), Offset: offsets},
	}).Run(faultnet.Limits{MaxTime: 100_000})
	verify(t, correct, true)
}

func TestNewRejectsZero(t *testing.T) {
	if _, err := New(Config{Self: 0, N: 0}); err == nil {
		t.Fatal("must reject n=0")
	}
}
