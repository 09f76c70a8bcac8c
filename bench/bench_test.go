package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"bgla"
	"bgla/internal/workload"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadFile(t *testing.T) *bench {
	t.Helper()
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	return &bench{file: bf, seconds: 1, seed: 7, reps: 1}
}

// miniature runs a 1-second version of a workload with one set-up and a
// short kernel budget.
func miniature(t *testing.T, b *bench, name string, trace bool) *runResult {
	t.Helper()
	old := kernelBudget
	kernelBudget = 2 * time.Millisecond
	defer func() { kernelBudget = old }()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	res, err := b.run(runConfig{sp: sp, seed: b.seed, seconds: b.seconds, trace: trace, setups: 1})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	if !res.correct() {
		t.Fatalf("%s trace=%v: oracle: %v", name, trace, res.violations)
	}
	return res
}

func TestBenchmarkFileMatchesSpecs(t *testing.T) {
	b := loadFile(t)
	if len(b.file.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench has %d", len(b.file.Workloads), len(specs))
	}
	for i, w := range b.file.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the bench %q", i, w.Name, specs[i].name)
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, b.file.EndToEnd...), b.file.PerLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range b.file.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	for _, sp := range specs {
		draw := func(seed int64) uint64 {
			return fingerprint(newSchedule(sp, seed, sp.mix, newOracle()).window(200 * time.Millisecond))
		}
		if a, b := draw(3), draw(3); a != b {
			t.Errorf("%s: same seed, fingerprints %x and %x", sp.name, a, b)
		}
		if a, b := draw(3), draw(4); a == b {
			t.Errorf("%s: seeds 3 and 4 give the same schedule", sp.name)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestEndToEndMiniature(t *testing.T) {
	b := loadFile(t)
	res := miniature(t, b, "mem-update", false)
	if res.failed != 0 {
		t.Errorf("mem-update: %d of %d operations failed: %v", res.failed, res.attempted, res.notes)
	}
	for _, d := range b.file.EndToEnd {
		if v := res.metrics[d.Name]; !(v > 0) {
			t.Errorf("%s = %v, want > 0 (the driver rejects metrics that read 0)", d.Name, v)
		}
	}
}

// TestTracedMiniatures checks every per-layer metric is emitted on every
// workload, that the decorators are pass-through (the oracle stays green
// with them on — miniature fails the test otherwise), that layers a
// workload bypasses report exactly zero, and that the trace is
// well-formed.
func TestTracedMiniatures(t *testing.T) {
	b := loadFile(t)
	names := []string{"mem-update", "durable-mixed", "sharded-scan", "wire-byz"}
	if testing.Short() {
		names = names[1:2]
	}
	for _, name := range names {
		res := miniature(t, b, name, true)
		m := res.metrics
		if res.failed != 0 {
			t.Errorf("%s: %d operations failed: %v", name, res.failed, res.notes)
		}
		// Writes happen on every decided record; a fsync (1 in 32 records)
		// may not fall inside a miniature's traced window.
		durable := name == "durable-mixed"
		if (m["wal.bytes_per_op"] > 0) != durable || (m["service.recover_s"] > 0) != durable {
			t.Errorf("%s: wal bytes/op %v, recover_s %v", name, m["wal.bytes_per_op"], m["service.recover_s"])
		}
		if !durable && (m["wal.fsyncs_per_op"] != 0 || m["wal.sync_busy_share"] != 0) {
			t.Errorf("%s: fsyncs/op %v, sync busy share %v, want exactly 0", name, m["wal.fsyncs_per_op"], m["wal.sync_busy_share"])
		}
		if wire := name == "wire-byz"; (m["tcpnet.wire_bytes_per_op"] > 0) != wire || (m["chanet.sent_per_op"] > 0) == wire {
			t.Errorf("%s: wire bytes/op %v, chanet sent/op %v", name, m["tcpnet.wire_bytes_per_op"], m["chanet.sent_per_op"])
		}
		if sharded := name == "sharded-scan"; (m["store.scan_p50_ms"] > 0) != sharded {
			t.Errorf("%s: scan_p50_ms %v", name, m["store.scan_p50_ms"])
		}
		if m["replica.msgs_in_per_op"] <= 0 || m["gwts.rounds"] <= 0 || m["batch.flights"] <= 0 {
			t.Errorf("%s: decorators recorded nothing: %v", name, m)
		}
		checkTrace(t, name)
	}
}

func checkTrace(t *testing.T, name string) {
	t.Helper()
	raw, err := os.ReadFile(tracePath(name))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	byID := map[int32]span{}
	ops := 0
	for _, s := range tf.Spans {
		byID[s.ID] = s
		if s.Name == "op" {
			ops++
		}
	}
	if ops == 0 || len(tf.Aggregates) == 0 {
		t.Fatalf("%s: trace has %d op spans and %d aggregates", name, ops, len(tf.Aggregates))
	}
	for _, s := range tf.Spans {
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Fatalf("%s: malformed span %+v", name, s)
		}
		if s.Parent >= 0 {
			p, ok := byID[s.Parent]
			if ok && (s.Start < p.Start || s.End > p.End) {
				t.Fatalf("%s: span %+v lies outside its parent %+v", name, s, p)
			}
		}
	}
}

// TestOracleCatchesViolations feeds the oracle outputs a correct system
// cannot produce.
func TestOracleCatchesViolations(t *testing.T) {
	item := func(body string) bgla.Item { return bgla.Item{Author: 1, Body: body + "\x009"} }
	fresh := func() (*oracle, []op) {
		o := newOracle()
		ops := newSchedule(specs[0], 1, workload.Mix{Update: 1}, o).take(3)
		for _, op := range ops {
			o.issued[op.id] = true
		}
		return o, ops
	}

	o, ops := fresh()
	o.ackedAt[ops[0].id], o.ackedAt[ops[1].id] = time.Millisecond, time.Millisecond
	o.checkContainsAcked([]bgla.Item{item(ops[0].body)}, "read")
	if len(o.violations) != 1 {
		t.Errorf("lost acknowledged update: violations %v", o.violations)
	}

	o, ops = fresh()
	o.checkContainsAcked([]bgla.Item{item("put|99|k|never-offered")}, "read")
	if len(o.violations) != 1 {
		t.Errorf("fabricated item: violations %v", o.violations)
	}

	o, ops = fresh()
	o.sampleRead([]bgla.Item{item(ops[0].body)}, -1, 0)
	o.sampleRead([]bgla.Item{item(ops[1].body)}, -1, 0)
	o.checkSamples(nil)
	if len(o.violations) != 1 {
		t.Errorf("incomparable reads: violations %v", o.violations)
	}

	o, ops = fresh()
	o.ackedAt[ops[2].id] = time.Millisecond
	o.sampleRead([]bgla.Item{item(ops[0].body)}, -1, 2*time.Millisecond)
	o.checkSamples(nil)
	if len(o.violations) != 1 {
		t.Errorf("stale read: violations %v", o.violations)
	}
}
