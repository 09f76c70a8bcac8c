package rsm

import (
	"reflect"
	"testing"

	"bgla/internal/faultnet"
)

// TestDeterministicReplayFullRSM re-runs an identical RSM workload and
// requires bit-identical outcomes: same decisions, same client results,
// same traffic. This is the reproducibility property the experiment
// tables rely on.
func TestDeterministicReplayFullRSM(t *testing.T) {
	run := func() (results [][]OpResult, sent int, endTime uint64) {
		n, f := 4, 1
		ops := []Op{
			{Kind: OpUpdate, Body: "a"},
			{Kind: OpRead},
			{Kind: OpUpdate, Body: "b"},
			{Kind: OpRead},
		}
		cfgs := []ClientConfig{
			{Self: 100, N: n, F: f, Replicas: replicaIDs(n), Ops: ops},
			{Self: 101, N: n, F: f, Replicas: replicaIDs(n), Ops: ops},
		}
		w := buildWorld(t, n, f, cfgs, nil)
		res := faultnet.New(w.machines, faultnet.Options{
			Seed:  31,
			Delay: faultnet.Uniform{Lo: 1, Hi: 5},
		}).Run(faultnet.Limits{MaxTime: 5_000_000})
		for _, c := range w.clients {
			results = append(results, c.Results())
		}
		return results, res.Metrics.SentTotal(), res.EndTime
	}
	r1, s1, t1 := run()
	r2, s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("traffic diverged: (%d,%d) vs (%d,%d)", s1, t1, s2, t2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("client results diverged between identical runs")
	}
}

// TestByzantineClientGarbageCommands verifies Lemma 12's filtering: a
// hostile client floods replicas with garbage commands; correct clients
// still complete and their CRDT views ignore the garbage.
func TestByzantineClientGarbageCommands(t *testing.T) {
	n, f := 4, 1
	honest := ClientConfig{Self: 100, N: n, F: f, Replicas: replicaIDs(n), Ops: []Op{
		{Kind: OpUpdate, Body: "add|good"},
		{Kind: OpRead},
	}}
	// The "Byzantine client" here is just another client whose command
	// bodies are garbage; replicas replicate them (they are lattice
	// elements), and execution-level views filter them out.
	hostile := ClientConfig{Self: 101, N: n, F: f, Replicas: replicaIDs(n), Ops: []Op{
		{Kind: OpUpdate, Body: "\x01\x02 not a command"},
		{Kind: OpUpdate, Body: "||||"},
	}}
	w := buildWorld(t, n, f, []ClientConfig{honest, hostile}, nil)
	res := faultnet.New(w.machines, faultnet.Options{}).Run(faultnet.Limits{MaxTime: 5_000_000})
	if res.Undelivered != 0 {
		t.Fatal("did not quiesce")
	}
	if !w.clients[0].Done() {
		t.Fatal("honest client blocked by hostile commands")
	}
	read := w.clients[0].Results()[1].Value
	// The garbage items are in the replicated state (they were decided)…
	if read.Len() < 2 {
		t.Fatalf("read too small: %v", read)
	}
	assertClean(t, history(res, w), 4)
}
