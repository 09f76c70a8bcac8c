// Fault schedules: scripted or randomized network faults applied
// deterministically at send time, virtual-time actions (crash/restart),
// and delivery-predicate triggers (crash a replica the moment its
// countersignature is delivered). Reliable links (paper §3) mean no
// rule ever drops a message — partitions and lag are bounded delay.
package faultnet

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"bgla/internal/ident"
	"bgla/internal/msg"
)

// Op is one network-fault rule, active over a virtual-time send window.
type Op interface {
	// String is the canonical description (repro output).
	String() string
	// active reports whether the rule applies to a send at time t.
	active(t uint64) bool
}

// window is the shared [From, Until) activity range (Until 0 = forever).
type window struct {
	From, Until uint64
}

func (w window) active(t uint64) bool {
	return t >= w.From && (w.Until == 0 || t < w.Until)
}

// Partition delays every message crossing the Side/rest cut until the
// window closes (heal): the virtual-time expression of a partition
// under reliable links. Messages within a side flow normally. A
// partition MUST heal (Until > 0): a permanent one would violate the
// paper's reliable-links model, so NewPartition rejects Until 0
// rather than silently doing nothing.
type Partition struct {
	window
	Side []ident.ProcessID
}

func (p Partition) crosses(from, to ident.ProcessID) bool {
	in := func(id ident.ProcessID) bool {
		for _, s := range p.Side {
			if s == id {
				return true
			}
		}
		return false
	}
	return in(from) != in(to)
}

func (p Partition) String() string {
	return fmt.Sprintf("partition[%d,%d)side=%v", p.From, p.Until, p.Side)
}

// Reorder adds a random extra delay in [0, Extra] to every delivery
// sent in the window, scrambling arrival order.
type Reorder struct {
	window
	Extra uint64
}

func (r Reorder) String() string {
	return fmt.Sprintf("reorder[%d,%d)extra=%d", r.From, r.Until, r.Extra)
}

// Dup duplicates each eligible delivery with probability 1/N (N >= 1;
// 1 = every delivery), the duplicate trailing by a fresh short delay —
// at-least-once links.
type Dup struct {
	window
	N int
}

func (d Dup) String() string {
	return fmt.Sprintf("dup[%d,%d)n=%d", d.From, d.Until, d.N)
}

// Lag delays every message addressed to Proc by By extra ticks inside
// the window: one slow replica, the paper's favourite adversary.
type Lag struct {
	window
	Proc ident.ProcessID
	By   uint64
}

func (l Lag) String() string {
	return fmt.Sprintf("lag[%d,%d)p=%v by=%d", l.From, l.Until, l.Proc, l.By)
}

// Action runs arbitrary deterministic code at a virtual time (crash a
// replica by replacing its machine through the net, forge traffic).
type Action struct {
	At uint64
	// Name appears in repro output.
	Name string
	Do   func(api ActionAPI)
	done bool
}

// ActionAPI is the surface actions and triggers run against, at an
// exact virtual time inside Run (the *Net itself).
type ActionAPI interface {
	Now() uint64
	// Send enqueues a message as if sent now.
	Send(from, to ident.ProcessID, m msg.Msg)
}

// Trigger fires an action when a delivery matches a predicate —
// "crash p3 the moment its ckpt.sig reaches the initiator".
type Trigger struct {
	Name  string
	Match func(from, to ident.ProcessID, m msg.Msg) bool
	Do    func(api ActionAPI)
	// Once limits the trigger to its first match.
	Once  bool
	fired bool
}

// Schedule is a deterministic fault plan: rules applied at send time,
// actions at virtual times, triggers at matching deliveries.
type Schedule struct {
	Ops      []Op
	Actions  []*Action
	Triggers []*Trigger
}

// At appends a named virtual-time action.
func (s *Schedule) At(t uint64, name string, do func(api ActionAPI)) *Schedule {
	s.Actions = append(s.Actions, &Action{At: t, Name: name, Do: do})
	return s
}

// On appends a delivery trigger.
func (s *Schedule) On(name string, match func(from, to ident.ProcessID, m msg.Msg) bool, do func(api ActionAPI)) *Schedule {
	s.Triggers = append(s.Triggers, &Trigger{Name: name, Match: match, Do: do, Once: true})
	return s
}

// String is the canonical plan description.
func (s *Schedule) String() string {
	if s == nil {
		return "<no faults>"
	}
	var parts []string
	for _, op := range s.Ops {
		parts = append(parts, op.String())
	}
	for _, a := range s.Actions {
		parts = append(parts, fmt.Sprintf("at(%d)%s", a.At, a.Name))
	}
	for _, t := range s.Triggers {
		parts = append(parts, "on:"+t.Name)
	}
	if len(parts) == 0 {
		return "<no faults>"
	}
	return strings.Join(parts, " ")
}

// apply adjusts one send's delivery time and duplicate count. Called
// with the net's rng; every draw depends only on the deterministic
// delivery sequence.
func (s *Schedule) apply(from, to ident.ProcessID, sendT, at uint64, rng *rand.Rand) (uint64, int) {
	dups := 0
	for _, op := range s.Ops {
		if !op.active(sendT) {
			continue
		}
		switch v := op.(type) {
		case Partition:
			if v.crosses(from, to) && v.Until > 0 && at < v.Until {
				at = v.Until + (at - sendT) // heal, then normal flight time
			}
		case Reorder:
			if v.Extra > 0 {
				at += uint64(rng.Int63n(int64(v.Extra + 1)))
			}
		case Dup:
			if v.N <= 1 || rng.Intn(v.N) == 0 {
				dups++
			}
		case Lag:
			if to == v.Proc {
				at += v.By
			}
		}
	}
	return at, dups
}

// nextActionAt returns the earliest unfired action time.
func (s *Schedule) nextActionAt() (uint64, bool) {
	var best uint64
	found := false
	for _, a := range s.Actions {
		if !a.done && (!found || a.At < best) {
			best, found = a.At, true
		}
	}
	return best, found
}

// popActions fires every unfired action due at or before now, in (At,
// insertion) order.
func (s *Schedule) popActions(now uint64, api ActionAPI) {
	due := make([]*Action, 0, 2)
	for _, a := range s.Actions {
		if !a.done && a.At <= now {
			due = append(due, a)
		}
	}
	sort.SliceStable(due, func(i, j int) bool { return due[i].At < due[j].At })
	for _, a := range due {
		a.done = true
		a.Do(api)
	}
}

// fireTriggers runs matching triggers for one delivery.
func (s *Schedule) fireTriggers(from, to ident.ProcessID, m msg.Msg, api ActionAPI) {
	for _, t := range s.Triggers {
		if t.fired && t.Once {
			continue
		}
		if t.Match(from, to, m) {
			t.fired = true
			t.Do(api)
		}
	}
}

// NewPartition builds a partition of side vs rest over [from, until).
// It panics on until == 0 (the "forever" convention of the other
// rules): reliable links forbid a partition that never heals, and an
// inert rule would silently validate nothing.
func NewPartition(from, until uint64, side ...ident.ProcessID) Partition {
	if until == 0 {
		panic("faultnet: a partition must heal (until > 0); the paper's reliable links forbid permanent partitions")
	}
	return Partition{window: window{From: from, Until: until}, Side: side}
}

// NewReorder builds a reordering rule over [from, until) (until 0 =
// forever) adding up to extra ticks per delivery.
func NewReorder(from, until, extra uint64) Reorder {
	return Reorder{window: window{From: from, Until: until}, Extra: extra}
}

// NewDup builds a duplication rule: one in n deliveries is doubled.
func NewDup(from, until uint64, n int) Dup {
	return Dup{window: window{From: from, Until: until}, N: n}
}

// NewLag builds a slow-replica rule: messages to proc take by extra
// ticks.
func NewLag(from, until uint64, proc ident.ProcessID, by uint64) Lag {
	return Lag{window: window{From: from, Until: until}, Proc: proc, By: by}
}

// RandParams bounds the randomized schedule generator.
type RandParams struct {
	// Procs are the replica processes faults may target.
	Procs []ident.ProcessID
	// Horizon is the virtual-time span fault windows are drawn from.
	Horizon uint64
	// MaxOps bounds the number of fault rules (>= 1).
	MaxOps int
}

// Random draws a seed-reproducible fault schedule: a mix of heal-able
// partitions, reordering, duplication and lag over random windows.
// The same seed and params always produce the same schedule.
func Random(seed int64, p RandParams) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	if p.Horizon == 0 {
		p.Horizon = 4096
	}
	if p.MaxOps < 1 {
		p.MaxOps = 4
	}
	nops := 1 + rng.Intn(p.MaxOps)
	s := &Schedule{}
	for i := 0; i < nops; i++ {
		from := uint64(rng.Int63n(int64(p.Horizon)))
		length := 1 + uint64(rng.Int63n(int64(p.Horizon/2)))
		w := window{From: from, Until: from + length}
		switch rng.Intn(4) {
		case 0:
			// Partition a random minority side.
			side := make([]ident.ProcessID, 0, 1)
			k := 1
			if len(p.Procs) > 3 {
				k = 1 + rng.Intn((len(p.Procs)-1)/3)
			}
			perm := rng.Perm(len(p.Procs))
			for _, idx := range perm[:k] {
				side = append(side, p.Procs[idx])
			}
			sort.Slice(side, func(a, b int) bool { return side[a] < side[b] })
			s.Ops = append(s.Ops, Partition{window: w, Side: side})
		case 1:
			s.Ops = append(s.Ops, Reorder{window: w, Extra: 1 + uint64(rng.Int63n(8))})
		case 2:
			s.Ops = append(s.Ops, Dup{window: w, N: 1 + rng.Intn(4)})
		default:
			s.Ops = append(s.Ops, Lag{
				window: w,
				Proc:   p.Procs[rng.Intn(len(p.Procs))],
				By:     1 + uint64(rng.Int63n(16)),
			})
		}
	}
	return s
}

// Mask returns a copy of the schedule keeping only the ops whose bit
// is set. Actions and triggers are kept — they are scripted, not
// searched — as fresh unfired copies, so a masked schedule replays
// from scratch even after the original ran. Used by the shrinker and
// the -faultnet.ops replay flag.
func (s *Schedule) Mask(bits uint64) *Schedule {
	out := &Schedule{}
	for _, a := range s.Actions {
		cp := *a
		cp.done = false
		out.Actions = append(out.Actions, &cp)
	}
	for _, t := range s.Triggers {
		cp := *t
		cp.fired = false
		out.Triggers = append(out.Triggers, &cp)
	}
	for i, op := range s.Ops {
		if bits&(1<<uint(i)) != 0 {
			out.Ops = append(out.Ops, op)
		}
	}
	return out
}

// Shrink minimizes a failing schedule: fails must report whether the
// run with the given op subset still fails. It greedily removes ops
// until no single removal preserves the failure, returning the kept
// bitmask over the original op list (delta-debugging, 1-minimal).
func Shrink(nops int, fails func(mask uint64) bool) uint64 {
	full := uint64(1)<<uint(nops) - 1
	if nops == 0 || nops > 63 {
		return full
	}
	mask := full
	for {
		removed := false
		for i := 0; i < nops; i++ {
			bit := uint64(1) << uint(i)
			if mask&bit == 0 {
				continue
			}
			if fails(mask &^ bit) {
				mask &^= bit
				removed = true
			}
		}
		if !removed {
			return mask
		}
	}
}
