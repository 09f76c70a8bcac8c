package faultnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bgla/internal/core/wts"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// relay forwards the first Junk it receives to the next process in the
// ring and records a DecideEvent stamped with its hop index, letting
// tests verify virtual-time accounting hop by hop.
type relay struct {
	proto.Recorder
	id   ident.ProcessID
	n    int
	seen bool
}

func (r *relay) ID() ident.ProcessID { return r.id }

func (r *relay) Start() []proto.Output {
	if r.id != 0 {
		return nil
	}
	// p0 kicks off the chain by messaging itself (free hop).
	return []proto.Output{proto.Send(0, msg.Junk{Blob: "go"})}
}

func (r *relay) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	if _, ok := m.(msg.Junk); !ok || r.seen {
		return nil
	}
	r.seen = true
	r.Emit(proto.DecideEvent{Proc: r.id, Value: lattice.Empty()})
	next := (int(r.id) + 1) % r.n
	if next == 0 {
		return nil
	}
	return []proto.Output{proto.Send(ident.ProcessID(next), msg.Junk{Blob: "go"})}
}

func ringMachines(n int) []proto.Machine {
	ms := make([]proto.Machine, n)
	for i := 0; i < n; i++ {
		ms[i] = &relay{id: ident.ProcessID(i), n: n}
	}
	return ms
}

func TestUnitDelayChainAccounting(t *testing.T) {
	n := 5
	res := New(ringMachines(n), Options{Delay: Fixed(1)}).Run(Limits{})
	// p0 hears itself at t=0 (self-delivery free); pk at t=k.
	for k := 0; k < n; k++ {
		tm, ok := res.MaxDecisionTime([]ident.ProcessID{ident.ProcessID(k)})
		if !ok {
			t.Fatalf("p%d never fired", k)
		}
		if tm != uint64(k) {
			t.Fatalf("p%d fired at t=%d, want %d", k, tm, k)
		}
	}
	if res.EndTime != uint64(n-1) {
		t.Fatalf("EndTime = %d, want %d", res.EndTime, n-1)
	}
	// n-1 cross-process messages (self hop not metered).
	if res.Metrics.SentTotal() != n-1 {
		t.Fatalf("SentTotal = %d, want %d", res.Metrics.SentTotal(), n-1)
	}
}

// broadcaster sends one broadcast on start.
type broadcaster struct {
	proto.Recorder
	id    ident.ProcessID
	got   int
	froms []ident.ProcessID
}

func (b *broadcaster) ID() ident.ProcessID { return b.id }
func (b *broadcaster) Start() []proto.Output {
	if b.id == 0 {
		return []proto.Output{proto.Bcast(msg.Junk{Blob: "hi"})}
	}
	return nil
}
func (b *broadcaster) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	b.got++
	b.froms = append(b.froms, from)
	return nil
}

func TestBroadcastExpansionAndSelfDelivery(t *testing.T) {
	n := 4
	ms := make([]proto.Machine, n)
	bs := make([]*broadcaster, n)
	for i := range ms {
		bs[i] = &broadcaster{id: ident.ProcessID(i)}
		ms[i] = bs[i]
	}
	res := New(ms, Options{Delay: Fixed(3)}).Run(Limits{})
	for i, b := range bs {
		if b.got != 1 {
			t.Fatalf("p%d received %d, want 1", i, b.got)
		}
		if b.froms[0] != 0 {
			t.Fatalf("p%d wrong sender %v", i, b.froms[0])
		}
	}
	// Broadcast to n expands to n sends but only n-1 are metered
	// (self excluded); all delivered.
	if res.Metrics.SentTotal() != n-1 {
		t.Fatalf("SentTotal = %d, want %d", res.Metrics.SentTotal(), n-1)
	}
	if res.Deliveries != n {
		t.Fatalf("Deliveries = %d, want %d", res.Deliveries, n)
	}
	if res.EndTime != 3 {
		t.Fatalf("EndTime = %d, want 3", res.EndTime)
	}
	if res.Metrics.SentByKind(msg.KindJunk) != n-1 {
		t.Fatalf("SentByKind = %v", res.Metrics)
	}
	if res.Metrics.MaxSentByProc([]ident.ProcessID{0}) != n-1 || res.Metrics[0][msg.KindJunk] != n-1 {
		t.Fatalf("per-proc metrics wrong: %v", res.Metrics)
	}
}

func TestWakeupsDeliverAtScheduledTime(t *testing.T) {
	n := 2
	ms := make([]proto.Machine, n)
	var tags []string
	rec := &funcMachine{id: 1, handle: func(from ident.ProcessID, m msg.Msg) []proto.Output {
		if w, ok := m.(msg.Wakeup); ok {
			tags = append(tags, fmt.Sprintf("%s@", w.Tag))
		}
		return nil
	}}
	ms[0] = &funcMachine{id: 0}
	ms[1] = rec
	res := New(ms, Options{}).Run(Limits{
		Wakeups: []Wakeup{{At: 5, To: 1, Tag: "b"}, {At: 2, To: 1, Tag: "a"}},
	})
	if res.EndTime != 5 {
		t.Fatalf("EndTime = %d, want 5", res.EndTime)
	}
	if len(tags) != 2 || tags[0] != "a@" || tags[1] != "b@" {
		t.Fatalf("wakeups out of order: %v", tags)
	}
}

// funcMachine is a minimal configurable machine for tests.
type funcMachine struct {
	proto.Recorder
	id     ident.ProcessID
	start  func() []proto.Output
	handle func(ident.ProcessID, msg.Msg) []proto.Output
}

func (f *funcMachine) ID() ident.ProcessID { return f.id }
func (f *funcMachine) Start() []proto.Output {
	if f.start == nil {
		return nil
	}
	return f.start()
}
func (f *funcMachine) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	if f.handle == nil {
		return nil
	}
	return f.handle(from, m)
}

func TestHorizonLeavesUndelivered(t *testing.T) {
	ms := []proto.Machine{
		&funcMachine{id: 0, start: func() []proto.Output {
			return []proto.Output{proto.Send(1, msg.Junk{}), proto.Send(1, msg.Junk{})}
		}},
		&funcMachine{id: 1},
	}
	delay := DelayFunc(func(from, to ident.ProcessID, m msg.Msg, now uint64, _ *rand.Rand) uint64 {
		return 100 // both messages past the horizon
	})
	res := New(ms, Options{Delay: delay}).Run(Limits{MaxTime: 10})
	if res.Undelivered != 2 {
		t.Fatalf("Undelivered = %d, want 2", res.Undelivered)
	}
	if res.Deliveries != 0 {
		t.Fatalf("Deliveries = %d, want 0", res.Deliveries)
	}
}

func TestMessagesToUnknownProcessDropped(t *testing.T) {
	ms := []proto.Machine{
		&funcMachine{id: 0, start: func() []proto.Output {
			return []proto.Output{proto.Send(99, msg.Junk{})}
		}},
	}
	res := New(ms, Options{}).Run(Limits{})
	if res.Metrics.SentTotal() != 0 || res.Deliveries != 0 {
		t.Fatalf("unexpected traffic: %+v", res.Metrics)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() *Result {
		return New(ringMachines(6), Options{Seed: 42, Delay: Uniform{Lo: 1, Hi: 9}}).Run(Limits{})
	}
	a, b := run(), run()
	if a.EndTime != b.EndTime || a.Deliveries != b.Deliveries {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatal("metrics diverged")
	}
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatal("timelines diverged")
	}
	c := New(ringMachines(6), Options{Seed: 43, Delay: Uniform{Lo: 1, Hi: 9}}).Run(Limits{})
	if reflect.DeepEqual(a.Timeline, c.Timeline) && a.EndTime == c.EndTime {
		t.Log("different seed produced identical run (possible but unlikely)")
	}
}

func TestDelayModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := (Fixed(4)).Delay(0, 1, msg.Junk{}, 0, rng); got != 4 {
		t.Fatalf("Fixed = %d", got)
	}
	u := Uniform{Lo: 2, Hi: 5}
	for i := 0; i < 100; i++ {
		d := u.Delay(0, 1, msg.Junk{}, 0, rng)
		if d < 2 || d > 5 {
			t.Fatalf("Uniform out of range: %d", d)
		}
	}
	if got := (Uniform{Lo: 3, Hi: 3}).Delay(0, 1, msg.Junk{}, 0, rng); got != 3 {
		t.Fatalf("degenerate Uniform = %d", got)
	}
	st := SenderStagger{Base: Fixed(1), Offset: map[ident.ProcessID]uint64{3: 7}}
	if got := st.Delay(3, 0, msg.Junk{}, 0, rng); got != 8 {
		t.Fatalf("SenderStagger = %d", got)
	}
	df := DelayFunc(func(_, _ ident.ProcessID, m msg.Msg, _ uint64, _ *rand.Rand) uint64 {
		if m.Kind() == msg.KindJunk {
			return 6
		}
		return 1
	})
	if got := df.Delay(0, 1, msg.Junk{}, 0, rng); got != 6 {
		t.Fatalf("DelayFunc = %d", got)
	}
	if got := df.Delay(0, 1, msg.Wakeup{}, 0, rng); got != 1 {
		t.Fatalf("DelayFunc other kind = %d", got)
	}
	// A started net sizes its lull gap from the model's bound, so it
	// refuses a model without one.
	if delayBound(Fixed(2)) != 2 || delayBound(Uniform{Lo: 1, Hi: 3}) != 3 {
		t.Fatal("delayBound")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Start accepted an unbounded delay model")
		}
	}()
	New(ringMachines(2), Options{Delay: df}).Start()
}

func TestZeroDelayClampedToOne(t *testing.T) {
	ms := []proto.Machine{
		&funcMachine{id: 0, start: func() []proto.Output {
			return []proto.Output{proto.Send(1, msg.Junk{})}
		}},
		&funcMachine{id: 1},
	}
	res := New(ms, Options{Delay: Fixed(0)}).Run(Limits{})
	if res.EndTime != 1 {
		t.Fatalf("EndTime = %d, want 1 (cross-process hop must cost >= 1)", res.EndTime)
	}
}

// TestDuplicateIDPanics: a second machine with the same ID would
// otherwise replace the first while the broadcast fan-out listed the ID
// twice, delivering every broadcast to it twice.
func TestDuplicateIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate IDs")
		}
	}()
	New([]proto.Machine{&funcMachine{id: 0}, &funcMachine{id: 0}}, Options{})
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{}
	m.record(0, msg.KindAck)
	m.record(0, msg.KindAck)
	m.record(1, msg.KindNack)
	if m.SentTotal() != 3 {
		t.Fatal("SentTotal")
	}
	if m.SentByKind(msg.KindAck) != 2 || m.SentByKind(msg.KindNack) != 1 {
		t.Fatal("SentByKind")
	}
	if m.MaxSentByProc([]ident.ProcessID{0, 1}) != 2 {
		t.Fatal("MaxSentByProc")
	}
	if m.MaxSentByProc([]ident.ProcessID{1}) != 1 {
		t.Fatal("MaxSentByProc subset")
	}
}

// TestRunMatchesLiveDispatch: a closed-world Run and a started net are
// one engine. The same self-starting WTS cluster, seed, delay model and
// fault rules must deliver the same messages at the same virtual times
// in the same order, whichever mode drives it.
func TestRunMatchesLiveDispatch(t *testing.T) {
	setup := func() ([]proto.Machine, Options) {
		var ms []proto.Machine
		for i := 0; i < 4; i++ {
			id := ident.ProcessID(i)
			m, err := wts.New(wts.Config{Self: id, N: 4, F: 1, Proposal: lattice.FromStrings(id, "v")})
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
		}
		sched := &Schedule{Ops: []Op{NewReorder(0, 40, 3), NewDup(0, 60, 2)}}
		return ms, Options{Seed: 5, Delay: Uniform{Lo: 1, Hi: 3}, Schedule: sched, Trace: &Trace{}}
	}
	ms, opts := setup()
	live := New(ms, opts)
	live.Start()
	live.Quiesce()
	live.Stop()

	ms, closed := setup()
	res := New(ms, closed).Run(Limits{})
	if d := Diff(opts.Trace, closed.Trace); d != "" {
		t.Fatalf("Run diverged from the live dispatcher: %s", d)
	}
	if opts.Trace.Lines() != res.Deliveries || res.Deliveries == 0 {
		t.Fatalf("traced %d deliveries, Run made %d", opts.Trace.Lines(), res.Deliveries)
	}
	if _, ok := res.MaxDecisionTime(ident.Range(4)); !ok {
		t.Fatal("not every replica decided")
	}
}
