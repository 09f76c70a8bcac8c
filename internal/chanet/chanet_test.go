package chanet

import (
	"testing"
	"time"

	"bgla/internal/core/gwts"
	"bgla/internal/core/sbs"
	"bgla/internal/core/wts"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

func isDecide(e proto.Event) bool {
	_, ok := e.(proto.DecideEvent)
	return ok
}

func TestWTSLiveRun(t *testing.T) {
	n, f := 4, 1
	var machines []proto.Machine
	var ms []*wts.Machine
	for i := 0; i < n; i++ {
		m, err := wts.New(wts.Config{Self: ident.ProcessID(i), N: n, F: f,
			Proposal: lattice.FromStrings(ident.ProcessID(i), "v")})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
		machines = append(machines, m)
	}
	net := New(machines, Options{MaxJitter: 2 * time.Millisecond, Seed: 1})
	net.Start()
	got := net.AwaitEvents(n, 10*time.Second, isDecide)
	net.Stop()
	if got != n {
		t.Fatalf("decisions = %d, want %d", got, n)
	}
	// Decisions comparable (machines are quiescent after Stop).
	for i := 0; i < n; i++ {
		di, ok := ms[i].Decision()
		if !ok {
			t.Fatalf("p%d undecided", i)
		}
		for j := i + 1; j < n; j++ {
			dj, _ := ms[j].Decision()
			if !di.Comparable(dj) {
				t.Fatalf("incomparable decisions p%d/p%d", i, j)
			}
		}
	}
}

func TestGWTSLiveRunWithClientInjection(t *testing.T) {
	n, f := 4, 1
	var machines []proto.Machine
	var ms []*gwts.Machine
	for i := 0; i < n; i++ {
		m, err := gwts.New(gwts.Config{Self: ident.ProcessID(i), N: n, F: f})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
		machines = append(machines, m)
	}
	net := New(machines, Options{MaxJitter: time.Millisecond, Seed: 2})
	net.Start()
	cmd := lattice.Item{Author: 100, Body: "live-cmd"}
	net.Inject(100, 0, msg.NewValue{Cmd: cmd})
	net.Inject(100, 1, msg.NewValue{Cmd: cmd})
	got := net.AwaitEvents(n, 10*time.Second, isDecide)
	net.Stop()
	if got < n {
		t.Fatalf("decisions = %d, want >= %d", got, n)
	}
	for i, m := range ms {
		if !m.Decided().Contains(cmd) {
			t.Fatalf("p%d decision misses injected command", i)
		}
	}
}

func TestSbSLiveRun(t *testing.T) {
	n, f := 4, 1
	kc := sig.NewEd25519(n, 3)
	var machines []proto.Machine
	for i := 0; i < n; i++ {
		m, err := sbs.New(sbs.Config{Self: ident.ProcessID(i), N: n, F: f,
			Proposal: lattice.FromStrings(ident.ProcessID(i), "v"), Keychain: kc})
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	net := New(machines, Options{MaxJitter: time.Millisecond, Seed: 3})
	net.Start()
	got := net.AwaitEvents(n, 10*time.Second, isDecide)
	net.Stop()
	if got != n {
		t.Fatalf("decisions = %d, want %d", got, n)
	}
}

func TestStopIsIdempotentAndClean(t *testing.T) {
	m, err := wts.New(wts.Config{Self: 0, N: 1, F: 0, Proposal: lattice.Empty()})
	if err != nil {
		t.Fatal(err)
	}
	net := New([]proto.Machine{m}, Options{})
	net.Start()
	net.AwaitEvents(1, time.Second, isDecide)
	net.Stop()
	// Post-stop injections are no-ops, not panics.
	net.Inject(0, 0, msg.Junk{})
}

func TestAwaitEventsTimeout(t *testing.T) {
	m, err := wts.New(wts.Config{Self: 0, N: 4, F: 1, Proposal: lattice.Empty()})
	if err != nil {
		t.Fatal(err)
	}
	// Single machine of a 4-cluster: can never decide.
	net := New([]proto.Machine{m}, Options{})
	net.Start()
	got := net.AwaitEvents(1, 50*time.Millisecond, isDecide)
	net.Stop()
	if got != 0 {
		t.Fatalf("unexpected decisions: %d", got)
	}
}

func TestSentCounter(t *testing.T) {
	n, f := 4, 1
	var machines []proto.Machine
	for i := 0; i < n; i++ {
		m, err := wts.New(wts.Config{Self: ident.ProcessID(i), N: n, F: f,
			Proposal: lattice.FromStrings(ident.ProcessID(i), "v")})
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	net := New(machines, Options{})
	net.Start()
	net.AwaitEvents(n, 10*time.Second, isDecide)
	net.Stop()
	if net.Sent() == 0 {
		t.Fatal("no messages metered")
	}
}

// TestMailboxFIFOAcrossReuse interleaves puts and takes so the queue
// drains (array reused from the start), backs up past a full array with
// a large taken prefix (compaction) and grows; order must hold.
func TestMailboxFIFOAcrossReuse(t *testing.T) {
	mb := newMailbox()
	next, want, peak := 0, 0, 0
	put := func(k int) {
		for i := 0; i < k; i++ {
			mb.put(envelope{from: ident.ProcessID(next)})
			next++
		}
		peak = max(peak, next-want)
	}
	take := func(k int) {
		for i := 0; i < k; i++ {
			e, ok := mb.take()
			if !ok || int(e.from) != want {
				t.Fatalf("take = %v/%v, want %d", e.from, ok, want)
			}
			want++
		}
	}
	for round := 0; round < 50; round++ {
		put(7 + round%5)
		take(5 + round%3)
	}
	take(next - want)
	if mb.head != 0 || len(mb.queue) != 0 {
		t.Fatalf("drained queue: head=%d len=%d", mb.head, len(mb.queue))
	}
	if c := cap(mb.queue); c > 4*peak {
		t.Fatalf("cap %d after a peak backlog of %d", c, peak)
	}
	mb.close()
	if _, ok := mb.take(); ok {
		t.Fatal("take on a closed empty mailbox must report false")
	}
}
