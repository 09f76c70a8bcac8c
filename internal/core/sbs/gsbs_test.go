package sbs

import (
	"fmt"
	"strings"
	"testing"

	"bgla/internal/check"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

func gCluster(t *testing.T, n, f int, kc sig.Keychain, seeds map[int][]lattice.Item, byz []proto.Machine, opts func(*GConfig)) ([]*GMachine, []proto.Machine) {
	t.Helper()
	byzIDs := ident.NewSet()
	for _, b := range byz {
		byzIDs.Add(b.ID())
	}
	var correct []*GMachine
	var all []proto.Machine
	for i := 0; i < n; i++ {
		id := ident.ProcessID(i)
		if byzIDs.Has(id) {
			continue
		}
		cfg := GConfig{Self: id, N: n, F: f, Keychain: kc, InitialValues: seeds[i]}
		if opts != nil {
			opts(&cfg)
		}
		m, err := NewG(cfg)
		if err != nil {
			t.Fatalf("NewG: %v", err)
		}
		correct = append(correct, m)
		all = append(all, m)
	}
	all = append(all, byz...)
	return correct, all
}

func gVerify(t *testing.T, correct []*GMachine, byzValues []lattice.Set, minDecisions int) {
	t.Helper()
	run := &check.GLARun{
		DecisionSeqs: map[ident.ProcessID][]lattice.Set{},
		Inputs:       map[ident.ProcessID]lattice.Set{},
		ByzValues:    byzValues,
	}
	for _, m := range correct {
		run.DecisionSeqs[m.ID()] = m.Decisions()
		run.Inputs[m.ID()] = m.Inputs()
	}
	if v := run.All(minDecisions); len(v) != 0 {
		t.Fatalf("GLA violations: %s", strings.Join(v, "; "))
	}
}

func gItem(author int, body string) lattice.Item {
	return lattice.Item{Author: ident.ProcessID(author), Body: body}
}

func TestGSbSSingleRound(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		kc := sig.NewSim(tc.n, 1)
		seeds := map[int][]lattice.Item{}
		for i := 0; i < tc.n; i++ {
			seeds[i] = []lattice.Item{gItem(i, "v0")}
		}
		correct, all := gCluster(t, tc.n, tc.f, kc, seeds, nil, nil)
		res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 100_000})
		if res.Undelivered != 0 {
			t.Fatalf("n=%d: did not quiesce (%d queued)", tc.n, res.Undelivered)
		}
		gVerify(t, correct, nil, 1)
	}
}

func TestGSbSMultiRoundFeeding(t *testing.T) {
	n, f := 4, 1
	kc := sig.NewSim(n, 1)
	correct, all := gCluster(t, n, f, kc, nil, nil, nil)
	feeder := &gFeeder{id: 100, f: f}
	all = append(all, feeder)
	var wakeups []faultnet.Wakeup
	for k := 0; k < 5; k++ {
		wakeups = append(wakeups, faultnet.Wakeup{At: uint64(1 + 25*k), To: 100, Tag: fmt.Sprintf("w%d", k)})
	}
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000, Wakeups: wakeups})
	if res.Undelivered != 0 {
		t.Fatalf("did not quiesce: %d queued", res.Undelivered)
	}
	gVerify(t, correct, nil, 1)
	for _, m := range correct {
		for k := 0; k < 5; k++ {
			if !m.Decided().Contains(gItem(100, fmt.Sprintf("w%d", k))) {
				t.Fatalf("%v final decision misses w%d", m.ID(), k)
			}
		}
	}
}

type gFeeder struct {
	proto.Recorder
	id ident.ProcessID
	f  int
}

func (g *gFeeder) ID() ident.ProcessID   { return g.id }
func (g *gFeeder) Start() []proto.Output { return nil }
func (g *gFeeder) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	w, ok := m.(msg.Wakeup)
	if !ok {
		return nil
	}
	var outs []proto.Output
	for i := 0; i <= g.f; i++ {
		outs = append(outs, proto.Send(ident.ProcessID(i), msg.NewValue{Cmd: gItem(int(g.id), w.Tag)}))
	}
	return outs
}

func TestGSbSMinRounds(t *testing.T) {
	n, f := 4, 1
	kc := sig.NewSim(n, 1)
	seeds := map[int][]lattice.Item{0: {gItem(0, "x")}}
	correct, all := gCluster(t, n, f, kc, seeds, nil, func(c *GConfig) { c.MinRounds = 3 })
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
	if res.Undelivered != 0 {
		t.Fatal("did not quiesce")
	}
	gVerify(t, correct, nil, 3)
}

func TestGSbSMutesTolerated(t *testing.T) {
	n, f := 4, 1
	kc := sig.NewSim(n, 1)
	seeds := map[int][]lattice.Item{}
	for i := 0; i < n-f; i++ {
		seeds[i] = []lattice.Item{gItem(i, "v")}
	}
	byz := []proto.Machine{&sbsMute{id: 3}}
	correct, all := gCluster(t, n, f, kc, seeds, byz, nil)
	res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
	if res.Undelivered != 0 {
		t.Fatal("did not quiesce")
	}
	gVerify(t, correct, nil, 1)
}

// certForger broadcasts a bogus decided certificate for round 0 trying
// to advance everyone's Safe_r illegitimately.
type certForger struct {
	proto.Recorder
	id ident.ProcessID
}

func (c *certForger) ID() ident.ProcessID { return c.id }
func (c *certForger) Start() []proto.Output {
	v := lattice.FromStrings(c.id, "fake")
	cert := msg.DecidedCert{Round: 0, Value: v, Acks: []msg.SignedAck{
		{Accepted: v, Dest: c.id, TS: 1, Round: 0, Signer: 0, Sig: []byte("x")},
		{Accepted: v, Dest: c.id, TS: 1, Round: 0, Signer: 1, Sig: []byte("y")},
		{Accepted: v, Dest: c.id, TS: 1, Round: 0, Signer: 2, Sig: []byte("z")},
	}}
	return []proto.Output{proto.Bcast(cert)}
}
func (c *certForger) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func TestGSbSForgedCertificateRejected(t *testing.T) {
	n, f := 4, 1
	kc := sig.NewSim(n, 1)
	seeds := map[int][]lattice.Item{}
	for i := 0; i < n-1; i++ {
		seeds[i] = []lattice.Item{gItem(i, "v")}
	}
	byz := []proto.Machine{&certForger{id: 3}}
	correct, all := gCluster(t, n, f, kc, seeds, byz, nil)
	faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
	gVerify(t, correct, nil, 1)
	for _, m := range correct {
		if m.Decided().Contains(gItem(3, "fake")) {
			t.Fatalf("%v decided a forged-certificate value", m.ID())
		}
		if m.Rejected() == 0 {
			t.Fatalf("%v did not record the forged cert", m.ID())
		}
	}
}

// farInit sends init values for a far-future round (resource attack).
type farInit struct {
	proto.Recorder
	id     ident.ProcessID
	crypto *Crypto
}

func (fi *farInit) ID() ident.ProcessID { return fi.id }
func (fi *farInit) Start() []proto.Output {
	sv := fi.crypto.SignValue(1000, lattice.FromStrings(fi.id, "far"))
	return []proto.Output{proto.Bcast(msg.InitVal{SV: sv})}
}
func (fi *farInit) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func TestGSbSFarFutureInitRejected(t *testing.T) {
	n, f := 4, 1
	kc := sig.NewSim(n, 1)
	seeds := map[int][]lattice.Item{}
	for i := 0; i < n-1; i++ {
		seeds[i] = []lattice.Item{gItem(i, "v")}
	}
	byz := []proto.Machine{&farInit{id: 3, crypto: NewCrypto(kc, 3, 3)}}
	correct, all := gCluster(t, n, f, kc, seeds, byz, nil)
	faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
	gVerify(t, correct, nil, 1)
	for _, m := range correct {
		if m.Rejected() == 0 {
			t.Fatalf("%v accepted the far-future init", m.ID())
		}
	}
}

func TestGSbSLinearMessagesPerDecision(t *testing.T) {
	// §8.2: O(f·n) messages per proposer per decision (no reliable
	// broadcast anywhere). Doubling n must not quadruple traffic.
	counts := map[int]int{}
	for _, n := range []int{8, 16} {
		f := 1
		kc := sig.NewSim(n, 1)
		seeds := map[int][]lattice.Item{}
		for i := 0; i < n; i++ {
			seeds[i] = []lattice.Item{gItem(i, "v")}
		}
		correct, all := gCluster(t, n, f, kc, seeds, nil, nil)
		res := faultnet.New(all, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 1_000_000})
		ids := make([]ident.ProcessID, len(correct))
		rounds := 0
		for i, m := range correct {
			ids[i] = m.ID()
			if r := len(m.Decisions()); r > rounds {
				rounds = r
			}
		}
		if rounds == 0 {
			t.Fatalf("n=%d: no decisions", n)
		}
		counts[n] = res.Metrics.MaxSentByProc(ids) / rounds
		if counts[n] > 30*n {
			t.Fatalf("n=%d: per-proposer per-decision messages %d not linear", n, counts[n])
		}
	}
	if ratio := float64(counts[16]) / float64(counts[8]); ratio > 3 {
		t.Fatalf("growth not linear: %v", counts)
	}
}

func TestGSbSDeterministicReplay(t *testing.T) {
	run := func() (int, uint64) {
		kc := sig.NewSim(4, 1)
		seeds := map[int][]lattice.Item{}
		for i := 0; i < 4; i++ {
			seeds[i] = []lattice.Item{gItem(i, "v")}
		}
		_, all := gCluster(t, 4, 1, kc, seeds, nil, func(c *GConfig) { c.MinRounds = 2 })
		res := faultnet.New(all, faultnet.Options{
			Seed:  11,
			Delay: faultnet.Uniform{Lo: 1, Hi: 5},
		}).Run(faultnet.Limits{MaxTime: 1_000_000})
		return res.Metrics.SentTotal(), res.EndTime
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("replay diverged")
	}
}

func TestGSbSRandomSeeds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		kc := sig.NewSim(4, 1)
		seeds := map[int][]lattice.Item{}
		for i := 0; i < 4; i++ {
			seeds[i] = []lattice.Item{gItem(i, fmt.Sprintf("s%d", seed))}
		}
		correct, all := gCluster(t, 4, 1, kc, seeds, nil, nil)
		res := faultnet.New(all, faultnet.Options{
			Seed:  seed,
			Delay: faultnet.Uniform{Lo: 1, Hi: 6},
		}).Run(faultnet.Limits{MaxTime: 1_000_000})
		if res.Undelivered != 0 {
			t.Fatalf("seed %d: did not quiesce", seed)
		}
		gVerify(t, correct, nil, 1)
	}
}

func TestGSbSValidation(t *testing.T) {
	kc := sig.NewSim(4, 1)
	if _, err := NewG(GConfig{Self: 0, N: 3, F: 1, Keychain: kc}); err == nil {
		t.Fatal("must reject n<3f+1")
	}
	if _, err := NewG(GConfig{Self: 0, N: 4, F: 1}); err == nil {
		t.Fatal("must reject missing keychain")
	}
	for s, want := range map[GState]string{GNewRound: "newround", GInit: "init", GSafetying: "safetying", GProposing: "proposing", GState(7): "gstate(7)"} {
		if s.String() != want {
			t.Fatalf("GState string %v", s)
		}
	}
}
