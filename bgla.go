// Package bgla is a Go implementation of Byzantine Generalized Lattice
// Agreement (Di Luna, Anceaume, Querzoni — IPPS 2020): wait-free lattice
// agreement, generalized lattice agreement and a linearizable replicated
// state machine for commutative updates, all tolerating f ≤ (n-1)/3
// Byzantine processes in a fully asynchronous system.
//
// The package offers three entry points:
//
//   - Solve / SolveGeneralized run the protocols as a closed world on
//     the deterministic virtual-time engine and report decisions plus
//     cost metrics (message delays and message counts as defined in
//     the paper);
//   - Service deploys a live Byzantine-tolerant RSM on a concurrent
//     in-process network with a blocking Update/Read client API;
//   - Store shards that RSM into key-partitioned independent lattices
//     with per-shard point operations and consistent cross-shard scans;
//   - the crdt re-exports build counters, sets and maps on top of the
//     Service and Store (the paper's motivating use case).
//
// Protocol internals live under internal/: see DESIGN.md for the map.
package bgla

import (
	"fmt"

	"bgla/internal/check"
	"bgla/internal/core"
	"bgla/internal/core/gwts"
	"bgla/internal/core/sbs"
	"bgla/internal/core/wts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

// Algorithm selects the agreement protocol.
type Algorithm int

// Available algorithms.
const (
	// WTS is Wait Till Safe (Algs 1-2): authenticated channels only,
	// O(n²) messages per process, decides in ≤ 2f+5 message delays.
	WTS Algorithm = iota
	// SbS is Safety by Signature (Algs 8-10): requires a PKI, O(n)
	// messages per proposer when f = O(1), ≤ 5+4f delays.
	SbS
	// GWTS is Generalized Wait Till Safe (Algs 3-4).
	GWTS
	// GSbS is the generalized signature-based variant (§8.2).
	GSbS
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case WTS:
		return "WTS"
	case SbS:
		return "SbS"
	case GWTS:
		return "GWTS"
	case GSbS:
		return "GSbS"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Item is one element of the canonical set lattice: an opaque payload
// attributed to the process (or client) that authored it.
type Item struct {
	Author int
	Body   string
}

func toLatticeItems(items []Item) []lattice.Item {
	out := make([]lattice.Item, len(items))
	for i, it := range items {
		out[i] = lattice.Item{Author: ident.ProcessID(it.Author), Body: it.Body}
	}
	return out
}

func fromLatticeSet(s lattice.Set) []Item {
	out := make([]Item, 0, s.Len())
	s.Each(func(it lattice.Item) bool {
		out = append(out, Item{Author: int(it.Author), Body: it.Body})
		return true
	})
	return out
}

// MaxFaulty returns the largest Byzantine fault bound for n processes,
// ⌊(n-1)/3⌋ (Theorem 1).
func MaxFaulty(n int) int { return core.MaxFaulty(n) }

// Config configures a one-shot lattice agreement run.
type Config struct {
	// N is the number of processes; F the tolerated Byzantine bound
	// (n >= 3f+1).
	N, F int
	// Algorithm must be WTS or SbS for one-shot runs.
	Algorithm Algorithm
	// Proposals[i] is process i's initial value (items it proposes).
	// Missing entries propose the empty set.
	Proposals map[int][]string
	// Mute marks processes to run as silent (crash-like Byzantine)
	// processes; at most F of them.
	Mute []int
	// Seed drives the scheduler. Every cross-process delay is drawn
	// from [max(1, DelayLo), DelayHi]: equal bounds give a constant
	// delay, and (0, 0), the default, gives unit delays.
	Seed             int64
	DelayLo, DelayHi uint64
	// MaxVirtualTime bounds the run (default 100000).
	MaxVirtualTime uint64
}

// Report is the outcome of a one-shot run.
type Report struct {
	// Decisions maps each correct process to its decision.
	Decisions map[int][]Item
	// MaxDelays is the largest first-decision virtual time (message
	// delays under unit delay models).
	MaxDelays uint64
	// Messages is the total cross-process message count; PerProcessMax
	// the largest per-process count.
	Messages      int
	PerProcessMax int
	// Violations lists any specification violations (empty on success).
	Violations []string
}

// Solve runs one-shot Byzantine Lattice Agreement and returns the
// decisions of the correct processes.
func Solve(cfg Config) (*Report, error) {
	if err := core.ValidateConfig(cfg.N, cfg.F); err != nil {
		return nil, err
	}
	if cfg.Algorithm != WTS && cfg.Algorithm != SbS {
		return nil, fmt.Errorf("bgla: one-shot Solve requires WTS or SbS, got %v", cfg.Algorithm)
	}
	if len(cfg.Mute) > cfg.F {
		return nil, fmt.Errorf("bgla: %d mute processes exceed f=%d", len(cfg.Mute), cfg.F)
	}
	if cfg.MaxVirtualTime == 0 {
		cfg.MaxVirtualTime = 100_000
	}
	var delay faultnet.DelayModel = faultnet.Fixed(1)
	switch lo := max(1, cfg.DelayLo); {
	case cfg.DelayHi >= lo:
		delay = faultnet.Uniform{Lo: lo, Hi: cfg.DelayHi}
	case cfg.DelayLo > cfg.DelayHi:
		return nil, fmt.Errorf("bgla: DelayLo %d exceeds DelayHi %d", cfg.DelayLo, cfg.DelayHi)
	}
	muted := ident.NewSet()
	for _, m := range cfg.Mute {
		muted.Add(ident.ProcessID(m))
	}
	var kc sig.Keychain
	if cfg.Algorithm == SbS {
		kc = sig.NewEd25519(cfg.N, cfg.Seed+1)
	}
	machines := make([]proto.Machine, 0, cfg.N)
	decide := map[int]func() (lattice.Set, bool){}
	proposals := map[ident.ProcessID]lattice.Set{}
	var correctIDs []ident.ProcessID
	for i := 0; i < cfg.N; i++ {
		id := ident.ProcessID(i)
		if muted.Has(id) {
			machines = append(machines, &muteMachine{id: id})
			continue
		}
		prop := lattice.FromStrings(id, cfg.Proposals[i]...)
		proposals[id] = prop
		correctIDs = append(correctIDs, id)
		switch cfg.Algorithm {
		case WTS:
			m, err := wts.New(wts.Config{Self: id, N: cfg.N, F: cfg.F, Proposal: prop})
			if err != nil {
				return nil, err
			}
			machines = append(machines, m)
			decide[i] = m.Decision
		case SbS:
			m, err := sbs.New(sbs.Config{Self: id, N: cfg.N, F: cfg.F, Proposal: prop, Keychain: kc})
			if err != nil {
				return nil, err
			}
			machines = append(machines, m)
			decide[i] = m.Decision
		}
	}
	res := faultnet.New(machines, faultnet.Options{Seed: cfg.Seed, Delay: delay}).Run(faultnet.Limits{MaxTime: cfg.MaxVirtualTime})

	rep := &Report{Decisions: map[int][]Item{}}
	run := &check.LARun{
		Proposals: proposals,
		Decisions: map[ident.ProcessID]lattice.Set{},
		F:         cfg.F,
	}
	for i, get := range decide {
		if d, ok := get(); ok {
			rep.Decisions[i] = fromLatticeSet(d)
			run.Decisions[ident.ProcessID(i)] = d
		}
	}
	rep.Violations = run.All()
	rep.MaxDelays, _ = res.MaxDecisionTime(correctIDs)
	rep.Messages = res.Metrics.SentTotal()
	rep.PerProcessMax = res.Metrics.MaxSentByProc(correctIDs)
	return rep, nil
}

type muteMachine struct {
	proto.Recorder
	id ident.ProcessID
}

func (m *muteMachine) ID() ident.ProcessID                            { return m.id }
func (m *muteMachine) Start() []proto.Output                          { return nil }
func (m *muteMachine) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

// GenConfig configures a generalized (multi-round) run.
type GenConfig struct {
	N, F int
	// Algorithm must be GWTS or GSbS.
	Algorithm Algorithm
	// Values[i] are the items process i receives before the run; the
	// protocols batch them into rounds.
	Values map[int][]string
	// MinRounds forces at least this many rounds.
	MinRounds int
	Seed      int64
	// MaxVirtualTime bounds the run (default 1000000).
	MaxVirtualTime uint64
}

// GenReport is the outcome of a generalized run.
type GenReport struct {
	// DecisionSeqs maps each process to its (non-decreasing) decision
	// sequence.
	DecisionSeqs map[int][][]Item
	// Final maps each process to its last decision.
	Final map[int][]Item
	// Messages is the total message count; Rounds the maximum decision
	// count of any process.
	Messages   int
	Rounds     int
	Violations []string
}

// SolveGeneralized runs Generalized Byzantine Lattice Agreement.
func SolveGeneralized(cfg GenConfig) (*GenReport, error) {
	if err := core.ValidateConfig(cfg.N, cfg.F); err != nil {
		return nil, err
	}
	if cfg.Algorithm != GWTS && cfg.Algorithm != GSbS {
		return nil, fmt.Errorf("bgla: SolveGeneralized requires GWTS or GSbS, got %v", cfg.Algorithm)
	}
	if cfg.MaxVirtualTime == 0 {
		cfg.MaxVirtualTime = 1_000_000
	}
	var kc sig.Keychain
	if cfg.Algorithm == GSbS {
		kc = sig.NewEd25519(cfg.N, cfg.Seed+1)
	}
	machines := make([]proto.Machine, 0, cfg.N)
	seqOf := map[int]func() []lattice.Set{}
	inputs := map[ident.ProcessID]lattice.Set{}
	for i := 0; i < cfg.N; i++ {
		id := ident.ProcessID(i)
		seed := make([]lattice.Item, 0, len(cfg.Values[i]))
		for _, body := range cfg.Values[i] {
			seed = append(seed, lattice.Item{Author: id, Body: body})
		}
		inputs[id] = lattice.FromItems(seed...) // no NewValue arrives
		switch cfg.Algorithm {
		case GWTS:
			m, err := gwts.New(gwts.Config{Self: id, N: cfg.N, F: cfg.F, InitialValues: seed, MinRounds: cfg.MinRounds})
			if err != nil {
				return nil, err
			}
			machines = append(machines, m)
			seqOf[i] = m.Decisions
		case GSbS:
			m, err := sbs.NewG(sbs.GConfig{Self: id, N: cfg.N, F: cfg.F, Keychain: kc, InitialValues: seed, MinRounds: cfg.MinRounds})
			if err != nil {
				return nil, err
			}
			machines = append(machines, m)
			seqOf[i] = m.Decisions
		}
	}
	res := faultnet.New(machines, faultnet.Options{Seed: cfg.Seed}).Run(faultnet.Limits{MaxTime: cfg.MaxVirtualTime})

	rep := &GenReport{DecisionSeqs: map[int][][]Item{}, Final: map[int][]Item{}}
	run := &check.GLARun{
		DecisionSeqs: map[ident.ProcessID][]lattice.Set{},
		Inputs:       inputs,
	}
	for i := 0; i < cfg.N; i++ {
		seq := seqOf[i]()
		run.DecisionSeqs[ident.ProcessID(i)] = seq
		for _, d := range seq {
			rep.DecisionSeqs[i] = append(rep.DecisionSeqs[i], fromLatticeSet(d))
		}
		if len(seq) > 0 {
			rep.Final[i] = fromLatticeSet(seq[len(seq)-1])
		}
		if len(seq) > rep.Rounds {
			rep.Rounds = len(seq)
		}
	}
	minDec := 1
	if cfg.MinRounds > minDec {
		minDec = cfg.MinRounds
	}
	rep.Violations = run.All(minDec)
	rep.Messages = res.Metrics.SentTotal()
	return rep, nil
}
