package faultnet

import (
	"fmt"
	"slices"
	"sort"

	"bgla/internal/check"
	"bgla/internal/compact"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/sig"
)

// RunObs is everything a scenario observed in one run; Check validates
// the paper's guarantees over it after the network has quiesced:
//
//   - confirmed reads and Scans are totally ordered (any two
//     comparable) and monotone in completion order — Theorem 6 lifted
//     through the batching pipeline and the Store's rescan loop;
//   - decided values are pairwise comparable and inclusive per shard
//     (the GLA specification, §6.1), across every correct replica;
//   - every completed update is visible in the final read;
//   - every installed checkpoint chain verifies: 2f+1 valid
//     signatures over the certificate preimage and a certified base
//     whose digest matches the certificate (DESIGN.md §6).
type RunObs struct {
	N, F int
	// Keychain verifies checkpoint certificates (nil skips cert checks).
	Keychain sig.Keychain

	// Reads are client-confirmed read/Scan results in completion
	// order (merged item sets for Scans).
	Reads []lattice.Set
	// Submitted are the commands whose Update completed successfully.
	Submitted []lattice.Item

	// DecidedByShard[s] maps each correct replica in shard s to its
	// final decided value; DecSeqsByShard / InputsByShard feed the GLA
	// checker per shard.
	DecidedByShard map[int]map[ident.ProcessID]lattice.Set
	DecSeqsByShard map[int]map[ident.ProcessID][]lattice.Set
	InputsByShard  map[int]map[ident.ProcessID]lattice.Set

	// Certs are the checkpoint certificates + bases replicas ended on.
	Certs []CertObs

	// Sabotage, when non-nil, corrupts the observations before
	// checking — the test-only hook the explorer's shrink-and-replay
	// path is validated against. Never set outside tests.
	Sabotage func(*RunObs)
}

// CertObs is one replica's terminal checkpoint state.
type CertObs struct {
	Shard   int
	Replica ident.ProcessID
	Cert    msg.CkptCert
	BaseDig lattice.Digest
	BaseLen int
}

// AddRead appends a completed read observation.
func (o *RunObs) AddRead(items []lattice.Item) {
	o.Reads = append(o.Reads, lattice.FromItems(items...))
}

// AddReplica records a correct replica's terminal protocol state for a
// shard (0 for the unsharded Service).
func (o *RunObs) AddReplica(shard int, id ident.ProcessID, decided lattice.Set, decSeq []lattice.Set, inputs lattice.Set) {
	if o.DecidedByShard == nil {
		o.DecidedByShard = map[int]map[ident.ProcessID]lattice.Set{}
		o.DecSeqsByShard = map[int]map[ident.ProcessID][]lattice.Set{}
		o.InputsByShard = map[int]map[ident.ProcessID]lattice.Set{}
	}
	if o.DecidedByShard[shard] == nil {
		o.DecidedByShard[shard] = map[ident.ProcessID]lattice.Set{}
		o.DecSeqsByShard[shard] = map[ident.ProcessID][]lattice.Set{}
		o.InputsByShard[shard] = map[ident.ProcessID]lattice.Set{}
	}
	o.DecidedByShard[shard][id] = decided
	o.DecSeqsByShard[shard][id] = decSeq
	o.InputsByShard[shard][id] = inputs
}

// Check returns every invariant violation ("" slice = clean run).
func (o *RunObs) Check() []string {
	if o.Sabotage != nil {
		o.Sabotage(o)
	}
	var v []string
	v = append(v, o.checkReads()...)
	v = append(v, o.checkDecided()...)
	v = append(v, o.checkVisibility()...)
	v = append(v, o.checkCerts()...)
	return v
}

// checkReads: total order of confirmed reads/Scans. Completion order
// is a real-time order, so linearizability demands each later read
// contain every earlier one — comparability and monotonicity in one.
func (o *RunObs) checkReads() []string {
	var v []string
	for i := 1; i < len(o.Reads); i++ {
		if !o.Reads[i-1].SubsetOf(o.Reads[i]) {
			missing := o.Reads[i-1].Minus(o.Reads[i])
			v = append(v, fmt.Sprintf(
				"read-order: read %d (%d items) misses %d item(s) of read %d (%d items), e.g. %v",
				i, o.Reads[i].Len(), len(missing), i-1, o.Reads[i-1].Len(), missing[0]))
		}
	}
	return v
}

// checkDecided: per-shard GLA specification over the correct replicas.
func (o *RunObs) checkDecided() []string {
	var v []string
	for shard, seqs := range o.DecSeqsByShard {
		run := &check.GLARun{
			DecisionSeqs: seqs,
			Inputs:       o.InputsByShard[shard],
		}
		for _, s := range run.LocalStability() {
			v = append(v, fmt.Sprintf("shard %d: %s", shard, s))
		}
		for _, s := range run.Comparability() {
			v = append(v, fmt.Sprintf("shard %d: %s", shard, s))
		}
		for _, s := range run.Inclusivity() {
			v = append(v, fmt.Sprintf("shard %d: %s", shard, s))
		}
		// Cross-replica final comparability (cheap restatement that
		// also covers replicas with trimmed decision logs).
		decided := o.DecidedByShard[shard]
		ids := sortedIDs(decided)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if !decided[ids[i]].Comparable(decided[ids[j]]) {
					v = append(v, fmt.Sprintf(
						"shard %d: replicas %v and %v decided incomparable values (%d vs %d items)",
						shard, ids[i], ids[j], decided[ids[i]].Len(), decided[ids[j]].Len()))
				}
			}
		}
	}
	return v
}

// checkVisibility: every completed update appears in the final read.
func (o *RunObs) checkVisibility() []string {
	if len(o.Reads) == 0 {
		return nil
	}
	final := o.Reads[len(o.Reads)-1]
	var v []string
	for _, cmd := range o.Submitted {
		if !final.Contains(cmd) {
			v = append(v, fmt.Sprintf("visibility: completed update %v missing from final read", cmd))
		}
	}
	return v
}

// checkCerts: checkpoint-chain digest validity.
func (o *RunObs) checkCerts() []string {
	if o.Keychain == nil {
		return nil
	}
	var v []string
	for _, c := range o.Certs {
		if !compact.VerifyCert(o.Keychain, o.N, o.F, c.Cert) {
			v = append(v, fmt.Sprintf(
				"ckpt: shard %d replica %v holds an invalid certificate (epoch %d)",
				c.Shard, c.Replica, c.Cert.Epoch))
		}
		if c.Cert.Dig != c.BaseDig || c.Cert.Len != c.BaseLen {
			v = append(v, fmt.Sprintf(
				"ckpt: shard %d replica %v base (len %d, dig %x…) does not match its certificate (len %d, dig %x…)",
				c.Shard, c.Replica, c.BaseLen, c.BaseDig[:4], c.Cert.Len, c.Cert.Dig[:4]))
		}
	}
	return v
}

// Received collects what the GLA specification's Inclusivity calls the
// values a process received: every msg.NewValue delivered to it. The
// protocol machines keep no such log; Record, a Transcode hook that
// passes the message on unchanged, builds it from the deliveries.
// Initial values are inputs too, and Of adds them.
type Received map[ident.ProcessID][]lattice.Item

// Record is an Options.Transcode hook.
func (r Received) Record(_, to ident.ProcessID, m msg.Msg) msg.Msg {
	if nv, ok := m.(msg.NewValue); ok {
		r[to] = append(r[to], nv.Cmd)
	}
	return m
}

// Of returns the values p received plus its initial values.
func (r Received) Of(p ident.ProcessID, initial ...lattice.Item) lattice.Set {
	return lattice.FromItems(append(slices.Clip(initial), r[p]...)...)
}

func sortedIDs(m map[ident.ProcessID]lattice.Set) []ident.ProcessID {
	ids := make([]ident.ProcessID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
