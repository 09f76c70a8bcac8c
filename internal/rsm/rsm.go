// Package rsm implements the Byzantine-tolerant replicated state
// machine of §7: replicas run Generalized Lattice Agreement (GWTS) over
// the power set of update commands, clients drive the update and read
// operations of Algorithms 5 and 6, and the replica side answers read
// confirmations through the Algorithm 7 plug-in (built into the GWTS
// machine). Update commands commute (set union), which is what lets the
// construction be both linearizable and wait-free in an asynchronous
// Byzantine system.
package rsm

import (
	"strconv"
	"strings"

	"bgla/internal/compact"
	"bgla/internal/core/gwts"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/obs"
)

// nopPrefix marks the no-op commands injected by reads (Alg 6 line 3).
const nopPrefix = "\x00nop|"

// NopCmd builds the unique nop command of a client read.
func NopCmd(client ident.ProcessID, seq int) lattice.Item {
	return lattice.Item{Author: client, Body: nopPrefix + client.String() + "|" + itoa(seq)}
}

// UniqueCmd builds an update command whose body is made unique by the
// client identity and a per-client sequence number (the uniqueness
// requirement of §7: the lattice is the power set of *distinct*
// commands, so identical payloads must not collapse). The CRDT views
// parse through the suffix.
func UniqueCmd(client ident.ProcessID, seq int, body string) lattice.Item {
	return lattice.Item{Author: client, Body: body + "\x00" + itoa(seq)}
}

// IsNop reports whether an item is a read marker.
func IsNop(it lattice.Item) bool { return strings.HasPrefix(it.Body, nopPrefix) }

// StripNops removes read markers from a state — the "executed" view of
// a decision value (nops modify the replica state like commands but are
// equivalent to a no-op when executed, §7.2). One walk of s: only the
// dropped markers are hashed (lattice.Set.Filter).
func StripNops(s lattice.Set) lattice.Set { return s.Filter(isCmd) }

func isCmd(it lattice.Item) bool { return !IsNop(it) }

// CountCmds returns the number of commands in a state, read markers not
// counted: StripNops(s).Len() without building the set.
func CountCmds(s lattice.Set) int {
	n := 0
	s.Each(func(it lattice.Item) bool {
		if !IsNop(it) {
			n++
		}
		return true
	})
	return n
}

// MaxSeq scans a state for the highest sequence number the given
// client has used, across update uniqueness suffixes and read nop
// markers alike. A restarted client must resume its sequence beyond
// this: the lattice is a set, so a reused (client, seq) pair makes a
// fresh command or read marker identical to a recovered item — it is
// silently absorbed, no new decision carries it, and its confirmation
// never arrives.
func MaxSeq(client ident.ProcessID, s lattice.Set) int {
	max := 0
	s.Each(func(it lattice.Item) bool {
		if it.Author != client {
			return true
		}
		sep := "\x00"
		if IsNop(it) {
			sep = "|"
		}
		if i := strings.LastIndex(it.Body, sep); i >= 0 {
			if v, err := strconv.Atoi(it.Body[i+1:]); err == nil && v > max {
				max = v
			}
		}
		return true
	})
	return max
}

func itoa(v int) string { return strconv.Itoa(v) }

// ReplicaConfig configures one RSM replica.
type ReplicaConfig struct {
	Self ident.ProcessID
	N    int
	F    int
	// Clients are the client processes to notify on every decision.
	Clients []ident.ProcessID
	// Compaction enables checkpointed history compaction for the
	// replica's GWTS machine (zero value = disabled; see
	// internal/compact and DESIGN.md §6).
	Compaction compact.Config
	// Trace, Clock and Shard plumb the consensus trace of DESIGN.md §9
	// into the GWTS machine (Trace nil = no tracing).
	Trace *obs.Tracer
	Clock obs.Clock
	Shard int
}

// NewReplica builds a replica: a GWTS machine whose decisions are
// pushed to the clients and whose confirmation plug-in serves reads.
func NewReplica(cfg ReplicaConfig) (*gwts.Machine, error) {
	return gwts.New(gwts.Config{
		Self:        cfg.Self,
		N:           cfg.N,
		F:           cfg.F,
		Subscribers: cfg.Clients,
		Compaction:  cfg.Compaction,
		Trace:       cfg.Trace,
		Clock:       cfg.Clock,
		Shard:       cfg.Shard,
	})
}
