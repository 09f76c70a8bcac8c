package rsm

import (
	"reflect"
	"strings"
	"testing"

	"bgla/internal/check"
	"bgla/internal/core/gwts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// world bundles an assembled RSM simulation.
type world struct {
	replicas []*gwts.Machine
	clients  []*Client
	machines []proto.Machine
}

// buildWorld creates n replicas (skipping byz IDs) and the given clients.
func buildWorld(t *testing.T, n, f int, clientCfgs []ClientConfig, byz []proto.Machine) *world {
	t.Helper()
	byzIDs := ident.NewSet()
	for _, b := range byz {
		byzIDs.Add(b.ID())
	}
	var clientIDs []ident.ProcessID
	for _, cc := range clientCfgs {
		clientIDs = append(clientIDs, cc.Self)
	}
	w := &world{}
	for i := 0; i < n; i++ {
		id := ident.ProcessID(i)
		if byzIDs.Has(id) {
			continue
		}
		r, err := NewReplica(ReplicaConfig{Self: id, N: n, F: f, Clients: clientIDs})
		if err != nil {
			t.Fatalf("NewReplica: %v", err)
		}
		w.replicas = append(w.replicas, r)
		w.machines = append(w.machines, r)
	}
	for _, cc := range clientCfgs {
		c := NewClient(cc)
		w.clients = append(w.clients, c)
		w.machines = append(w.machines, c)
	}
	w.machines = append(w.machines, byz...)
	return w
}

// history extracts the completed-op history from a run's timeline.
func history(res *faultnet.Result, w *world) *check.RSMHistory {
	type open struct {
		start uint64
		kind  string
		cmd   lattice.Item
	}
	opens := map[string]open{}
	h := &check.RSMHistory{}
	for _, te := range res.Timeline {
		switch e := te.Event.(type) {
		case proto.ClientStartEvent:
			opens[e.OpID] = open{start: te.Time, kind: e.Kind, cmd: e.Cmd}
		case proto.ClientDoneEvent:
			o := opens[e.OpID]
			h.Ops = append(h.Ops, check.OpRecord{
				ID: e.OpID, Kind: o.kind, Cmd: o.cmd,
				Start: o.start, End: te.Time, Value: e.Value,
			})
		}
	}
	for _, r := range w.replicas {
		h.DecidedByCorrect = append(h.DecidedByCorrect, r.Decisions()...)
	}
	return h
}

func replicaIDs(n int) []ident.ProcessID { return ident.Range(n) }

func assertClean(t *testing.T, h *check.RSMHistory, expectedOps int) {
	t.Helper()
	if v := h.All(expectedOps); len(v) != 0 {
		t.Fatalf("RSM violations: %s", strings.Join(v, "; "))
	}
}

func TestSingleClientUpdateReadSequence(t *testing.T) {
	n, f := 4, 1
	ops := []Op{
		{Kind: OpUpdate, Body: "add(1)"},
		{Kind: OpRead},
		{Kind: OpUpdate, Body: "add(2)"},
		{Kind: OpRead},
	}
	w := buildWorld(t, n, f, []ClientConfig{{Self: 100, N: n, F: f, Replicas: replicaIDs(n), Ops: ops}}, nil)
	res := faultnet.New(w.machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
	if res.Undelivered != 0 {
		t.Fatalf("did not quiesce: %d queued", res.Undelivered)
	}
	c := w.clients[0]
	if !c.Done() {
		t.Fatalf("client incomplete: %d/%d ops", len(c.Results()), len(ops))
	}
	results := c.Results()
	// First read sees add(1); second read sees both.
	r1 := StripNops(results[1].Value)
	r2 := StripNops(results[3].Value)
	if !r1.Contains(lattice.Item{Author: 100, Body: "add(1)"}) {
		t.Fatalf("read1 = %v misses add(1)", r1)
	}
	if !r2.Contains(lattice.Item{Author: 100, Body: "add(1)"}) || !r2.Contains(lattice.Item{Author: 100, Body: "add(2)"}) {
		t.Fatalf("read2 = %v misses updates", r2)
	}
	if !r1.SubsetOf(r2) {
		t.Fatal("reads not monotonic")
	}
	assertClean(t, history(res, w), len(ops))
}

func TestConcurrentClients(t *testing.T) {
	n, f := 4, 1
	mk := func(id int, body string) ClientConfig {
		return ClientConfig{
			Self: ident.ProcessID(id), N: n, F: f, Replicas: replicaIDs(n),
			Ops: []Op{
				{Kind: OpUpdate, Body: body + "-1"},
				{Kind: OpRead},
				{Kind: OpUpdate, Body: body + "-2"},
				{Kind: OpRead},
			},
		}
	}
	w := buildWorld(t, n, f, []ClientConfig{mk(100, "a"), mk(101, "b"), mk(102, "c")}, nil)
	res := faultnet.New(w.machines, faultnet.Options{
		Seed:  3,
		Delay: faultnet.Uniform{Lo: 1, Hi: 4},
	}).Run(faultnet.Limits{MaxTime: 5_000_000})
	for _, c := range w.clients {
		if !c.Done() {
			t.Fatalf("client %v incomplete (%d results)", c.ID(), len(c.Results()))
		}
	}
	assertClean(t, history(res, w), 12)
}

func TestPacedClientsInterleaved(t *testing.T) {
	n, f := 4, 1
	cfgs := []ClientConfig{
		{Self: 100, N: n, F: f, Replicas: replicaIDs(n), Paced: true, Ops: []Op{
			{Kind: OpUpdate, Body: "x"}, {Kind: OpRead},
		}},
		{Self: 101, N: n, F: f, Replicas: replicaIDs(n), Paced: true, Ops: []Op{
			{Kind: OpUpdate, Body: "y"}, {Kind: OpRead},
		}},
	}
	w := buildWorld(t, n, f, cfgs, nil)
	res := faultnet.New(w.machines, faultnet.Options{}).Run(faultnet.Limits{
		MaxTime: 1_000_000,
		Wakeups: []faultnet.Wakeup{
			{At: 1, To: 100, Tag: "op"}, {At: 5, To: 101, Tag: "op"},
			{At: 60, To: 101, Tag: "op"}, {At: 80, To: 100, Tag: "op"},
		},
	})
	for _, c := range w.clients {
		if !c.Done() {
			t.Fatalf("client %v incomplete", c.ID())
		}
	}
	assertClean(t, history(res, w), 4)
}

type muteReplica struct {
	proto.Recorder
	id ident.ProcessID
}

func (m *muteReplica) ID() ident.ProcessID                            { return m.id }
func (m *muteReplica) Start() []proto.Output                          { return nil }
func (m *muteReplica) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func TestLivenessWithMuteByzReplica(t *testing.T) {
	n, f := 4, 1
	ops := []Op{{Kind: OpUpdate, Body: "v"}, {Kind: OpRead}}
	cfg := ClientConfig{Self: 100, N: n, F: f, Replicas: replicaIDs(n), Ops: ops}
	w := buildWorld(t, n, f, []ClientConfig{cfg}, []proto.Machine{&muteReplica{id: 3}})
	res := faultnet.New(w.machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
	if !w.clients[0].Done() {
		t.Fatal("mute replica blocked the client")
	}
	assertClean(t, history(res, w), 2)
}

// fakeDecider learns commands from ack requests and spams clients with
// fabricated decide notifications and confirmations for a poisoned set.
type fakeDecider struct {
	proto.Recorder
	id      ident.ProcessID
	clients []ident.ProcessID
	seen    lattice.Set
}

func (fd *fakeDecider) ID() ident.ProcessID   { return fd.id }
func (fd *fakeDecider) Start() []proto.Output { return nil }
func (fd *fakeDecider) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	var outs []proto.Output
	switch v := m.(type) {
	case msg.AckReq:
		fd.seen = fd.seen.Union(v.Proposed)
		poisoned := fd.seen.Union(lattice.FromStrings(fd.id, "poison"))
		for _, c := range fd.clients {
			outs = append(outs, proto.Send(c, msg.Decide{Value: poisoned, Round: 0}))
		}
	case msg.CnfReq:
		// Confirm anything, including the poisoned value.
		outs = append(outs, proto.Send(from, msg.CnfRep{Value: v.Value}))
	}
	return outs
}

func TestFakeDecideNotificationsFiltered(t *testing.T) {
	n, f := 4, 1
	ops := []Op{{Kind: OpUpdate, Body: "real"}, {Kind: OpRead}}
	cfg := ClientConfig{Self: 100, N: n, F: f, Replicas: replicaIDs(n), Ops: ops}
	fd := &fakeDecider{id: 3, clients: []ident.ProcessID{100}}
	w := buildWorld(t, n, f, []ClientConfig{cfg}, []proto.Machine{fd})
	res := faultnet.New(w.machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
	if !w.clients[0].Done() {
		t.Fatal("client blocked")
	}
	read := w.clients[0].Results()[1].Value
	if read.Contains(lattice.Item{Author: 3, Body: "poison"}) {
		t.Fatalf("read returned the poisoned value: %v", read)
	}
	assertClean(t, history(res, w), 2)
}

func TestByzClientUnderSubmitsStillWorks(t *testing.T) {
	// Lemma 12: a client sending its command to fewer than f+1 replicas
	// still gets it decided once a single correct replica proposes it.
	n, f := 4, 1
	lazy := ClientConfig{Self: 100, N: n, F: f, Replicas: replicaIDs(n), SubmitTo: replicaIDs(n)[:1], Ops: []Op{{Kind: OpUpdate, Body: "lazy"}}}
	honest := ClientConfig{Self: 101, N: n, F: f, Replicas: replicaIDs(n), Ops: []Op{{Kind: OpUpdate, Body: "ok"}, {Kind: OpRead}}}
	w := buildWorld(t, n, f, []ClientConfig{lazy, honest}, nil)
	res := faultnet.New(w.machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
	// The lazy client still completes: it hears decides from all
	// replicas even though it submitted to one.
	if !w.clients[0].Done() {
		t.Fatal("under-submitting client blocked")
	}
	if !w.clients[1].Done() {
		t.Fatal("honest client blocked")
	}
	assertClean(t, history(res, w), 3)
}

func TestNopHelpers(t *testing.T) {
	nop := NopCmd(100, 7)
	if !IsNop(nop) {
		t.Fatal("NopCmd not recognized")
	}
	real := lattice.Item{Author: 100, Body: "add(1)"}
	if IsNop(real) {
		t.Fatal("real command flagged as nop")
	}

	// cmds(lo, hi, every) mints sequence numbers lo..hi-1 as commands,
	// every every-th one a read marker instead (every 0: none).
	cmds := func(lo, hi, every int) []lattice.Item {
		var out []lattice.Item
		for i := lo; i < hi; i++ {
			if every > 0 && i%every == 0 {
				out = append(out, NopCmd(100, i))
			} else {
				out = append(out, UniqueCmd(100, i, "add(1)"))
			}
		}
		return out
	}
	// anchored rebases base ∪ window on the base prefix.
	anchored := func(base, window []lattice.Item) lattice.Set {
		b := lattice.FromItems(base...)
		s, ok := b.Union(lattice.FromItems(window...)).Rebase(lattice.NewBase(b))
		if !ok {
			t.Fatal("rebase")
		}
		return s
	}
	cases := []struct {
		name string
		s    lattice.Set
	}{
		{"empty", lattice.Empty()},
		{"flat", lattice.FromItems(nop, real)},
		{"flat-mixed", lattice.FromItems(cmds(0, 40, 5)...)},
		{"anchored-nops-in-base", anchored(cmds(0, 30, 5), cmds(30, 50, 0))},
		{"anchored-nops-in-window", anchored(cmds(0, 30, 0), cmds(30, 50, 5))},
		{"anchored-nops-in-both", anchored(cmds(0, 30, 5), cmds(30, 50, 5))},
		{"all-nop", anchored(cmds(0, 30, 1), cmds(30, 40, 1))},
		{"no-nop", anchored(cmds(0, 30, 0), cmds(30, 40, 0))},
	}
	for _, tc := range cases {
		var kept []lattice.Item
		tc.s.Each(func(it lattice.Item) bool {
			if !IsNop(it) {
				kept = append(kept, it)
			}
			return true
		})
		want := lattice.FromItems(kept...)
		got := StripNops(tc.s)
		if got.Len() != want.Len() || got.Digest() != want.Digest() ||
			!reflect.DeepEqual(got.Items(), want.Items()) {
			t.Fatalf("%s: StripNops = %v, want %v", tc.name, got, want)
		}
		if n := CountCmds(tc.s); n != want.Len() {
			t.Fatalf("%s: CountCmds = %d, want %d", tc.name, n, want.Len())
		}
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 42: "42", -3: "-3", 1000: "1000"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Fatalf("itoa(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestReadValidityCheckerCatchesFabrication(t *testing.T) {
	// Sanity-check the checker itself: a read value nobody decided is
	// flagged.
	h := &check.RSMHistory{
		Ops: []check.OpRecord{{
			ID: "r", Kind: "read", Start: 0, End: 1,
			Value: lattice.FromStrings(9, "fabricated"),
		}},
		DecidedByCorrect: []lattice.Set{lattice.FromStrings(0, "real")},
	}
	if v := h.ReadValidity(); len(v) != 1 {
		t.Fatalf("ReadValidity = %v", v)
	}
}

func TestMaxSeqResumesClientSequence(t *testing.T) {
	client := ident.ProcessID(100)
	s := lattice.FromItems(
		UniqueCmd(client, 3, "a"),
		UniqueCmd(client, 12, "b"),
		NopCmd(client, 9),
		UniqueCmd(7, 99, "another client's sequence is not ours"),
		lattice.Item{Author: client, Body: "no suffix at all"},
	)
	if got := MaxSeq(client, s); got != 12 {
		t.Fatalf("MaxSeq = %d, want 12", got)
	}
	if got := MaxSeq(client, lattice.Empty()); got != 0 {
		t.Fatalf("MaxSeq(empty) = %d, want 0", got)
	}
	// A reused sequence is the failure MaxSeq exists to prevent: the
	// next seq after resume must mint an item outside the recovered set.
	next := MaxSeq(client, s) + 1
	if s.Contains(NopCmd(client, next)) || s.Contains(UniqueCmd(client, next, "a")) {
		t.Fatal("resumed sequence collides with recovered state")
	}
}
