package faultnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bgla/internal/check"
	"bgla/internal/core/gwts"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

const testClient ident.ProcessID = 1000

// cluster builds n-f correct GWTS machines (the last f slots are left
// to the caller: adversaries, Restartables, or more correct machines).
func cluster(t *testing.T, n, f, correct int) ([]proto.Machine, []*gwts.Machine) {
	t.Helper()
	var machines []proto.Machine
	var reps []*gwts.Machine
	for i := 0; i < correct; i++ {
		m, err := gwts.New(gwts.Config{Self: ident.ProcessID(i), N: n, F: f})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, m)
		machines = append(machines, m)
	}
	return machines, reps
}

// drive runs a seeded workload of sequential injected values and
// returns the trace.
func drive(t *testing.T, seed int64, sched *Schedule, values int) (*Trace, []*gwts.Machine) {
	t.Helper()
	machines, reps := cluster(t, 4, 1, 4)
	tr := &Trace{}
	net := New(machines, Options{Seed: seed, Delay: Uniform{Lo: 1, Hi: 3}, Schedule: sched, Trace: tr})
	net.Start()
	for k := 0; k < values; k++ {
		cmd := lattice.Item{Author: testClient, Body: fmt.Sprintf("cmd-%03d", k)}
		net.Inject(testClient, ident.ProcessID(k%2), msg.NewValue{Cmd: cmd})
		net.Quiesce()
	}
	net.Quiesce()
	net.Stop()
	return tr, reps
}

func checkGLA(t *testing.T, reps []*gwts.Machine, wantDecided int) {
	t.Helper()
	run := &check.GLARun{
		DecisionSeqs: map[ident.ProcessID][]lattice.Set{},
		Inputs:       map[ident.ProcessID]lattice.Set{},
	}
	for _, m := range reps {
		run.DecisionSeqs[m.ID()] = m.Decisions()
		run.Inputs[m.ID()] = m.Inputs()
	}
	if v := run.All(1); len(v) != 0 {
		t.Fatalf("GLA violations: %s", strings.Join(v, "; "))
	}
	for _, m := range reps {
		if got := m.Decided().Len(); got < wantDecided {
			t.Fatalf("replica %v decided %d/%d values", m.ID(), got, wantDecided)
		}
	}
}

// TestDeterministicTraces: the same seed must replay byte-identically,
// and different seeds must actually explore different schedules.
func TestDeterministicTraces(t *testing.T) {
	mkSched := func() *Schedule {
		return &Schedule{Ops: []Op{
			Reorder{window: window{From: 0, Until: 200}, Extra: 4},
			Dup{window: window{From: 50, Until: 150}, N: 2},
		}}
	}
	a, repsA := drive(t, 7, mkSched(), 8)
	b, repsB := drive(t, 7, mkSched(), 8)
	if d := Diff(a, b); d != "" {
		t.Fatalf("same seed diverged: %s", d)
	}
	if a.Lines() == 0 {
		t.Fatal("empty trace")
	}
	checkGLA(t, repsA, 8)
	checkGLA(t, repsB, 8)

	c, _ := drive(t, 8, mkSched(), 8)
	if Diff(a, c) == "" {
		t.Fatal("different seeds produced identical traces — the rng is not wired")
	}
}

// TestPartitionHeals: a replica partitioned away misses the early
// rounds but converges after heal (reliable links: delay, not loss).
func TestPartitionHeals(t *testing.T) {
	sched := &Schedule{Ops: []Op{
		Partition{window: window{From: 0, Until: 400}, Side: []ident.ProcessID{3}},
	}}
	_, reps := drive(t, 21, sched, 6)
	checkGLA(t, reps, 6)
}

// TestDuplicatesAreHarmless: at-least-once delivery must not break the
// specification (idempotent protocol handlers).
func TestDuplicatesAreHarmless(t *testing.T) {
	sched := &Schedule{Ops: []Op{Dup{window: window{From: 0}, N: 1}}}
	_, reps := drive(t, 33, sched, 6)
	checkGLA(t, reps, 6)
}

// TestLagAndReorder: one slow replica plus global reordering.
func TestLagAndReorder(t *testing.T) {
	sched := &Schedule{Ops: []Op{
		Lag{window: window{From: 0}, Proc: 2, By: 9},
		Reorder{window: window{From: 0}, Extra: 5},
	}}
	_, reps := drive(t, 44, sched, 6)
	checkGLA(t, reps, 6)
}

// TestActionAndTriggerFire: virtual-time actions and delivery
// triggers run exactly once at deterministic points.
func TestActionAndTriggerFire(t *testing.T) {
	var actionAt, triggerStep uint64
	sched := &Schedule{}
	sched.At(50, "probe", func(api ActionAPI) { actionAt = api.Now() })
	sched.On("first-echo", func(from, to ident.ProcessID, m msg.Msg) bool {
		_, ok := m.(msg.RBCEcho)
		return ok
	}, func(api ActionAPI) { triggerStep = api.Now() })
	_, reps := drive(t, 5, sched, 4)
	checkGLA(t, reps, 4)
	if actionAt != 50 {
		t.Fatalf("action fired at vtime %d, want exactly 50 (before any delivery at t >= 50)", actionAt)
	}
	if triggerStep == 0 {
		t.Fatal("delivery trigger never fired")
	}
}

// TestRandomSchedulesReproducible: Random is a pure function of seed.
func TestRandomSchedulesReproducible(t *testing.T) {
	p := RandParams{Procs: ident.Range(4), Horizon: 1000, MaxOps: 6}
	for seed := int64(0); seed < 20; seed++ {
		a, b := Random(seed, p), Random(seed, p)
		if a.String() != b.String() {
			t.Fatalf("seed %d: %s != %s", seed, a, b)
		}
		if len(a.Ops) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
	}
}

// TestRandomScheduleRunsHoldSpec: a small explorer sweep at the
// protocol layer — every randomized schedule preserves the GLA spec.
func TestRandomScheduleRunsHoldSpec(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		sched := Random(seed, RandParams{Procs: ident.Range(4), Horizon: 600, MaxOps: 4})
		_, reps := drive(t, seed, sched, 5)
		checkGLA(t, reps, 5)
		t.Logf("seed %d ok: %s", seed, sched)
	}
}

// TestShrinkFindsMinimalMask: the shrinker reduces to exactly the
// failure-relevant ops.
func TestShrinkFindsMinimalMask(t *testing.T) {
	// Failure "needs" ops 1 and 3 out of 5.
	fails := func(mask uint64) bool { return mask&0b01010 == 0b01010 }
	got := Shrink(5, fails)
	if got != 0b01010 {
		t.Fatalf("shrunk mask = %05b, want 01010", got)
	}
	// A failure that vanishes with any removal keeps everything.
	full := uint64(0b11111)
	if got := Shrink(5, func(mask uint64) bool { return mask == full }); got != full {
		t.Fatalf("irreducible mask = %05b, want 11111", got)
	}
}

// TestMaskKeepsActions: shrinking never discards scripted actions.
func TestMaskKeepsActions(t *testing.T) {
	s := &Schedule{Ops: []Op{
		Dup{window: window{}, N: 1},
		Lag{window: window{}, Proc: 1, By: 2},
	}}
	s.At(10, "x", func(ActionAPI) {})
	m := s.Mask(0b10)
	if len(m.Ops) != 1 || len(m.Actions) != 1 {
		t.Fatalf("mask kept %d ops, %d actions", len(m.Ops), len(m.Actions))
	}
	if _, ok := m.Ops[0].(Lag); !ok {
		t.Fatalf("mask kept wrong op %v", m.Ops[0])
	}
}

// TestQuiesceAndStopRace: Quiesce callers racing Stop must all return.
func TestQuiesceAndStopRace(t *testing.T) {
	machines, _ := cluster(t, 4, 1, 4)
	net := New(machines, Options{Seed: 1})
	net.Start()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			net.Inject(testClient, 0, msg.NewValue{Cmd: lattice.Item{Author: testClient, Body: fmt.Sprintf("c%d", i)}})
		}
		net.Quiesce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("quiesce hung")
	}
	net.Stop()
	net.Stop() // idempotent
}
