package bgla

// Observability-layer full-stack tests (DESIGN.md §9): the consensus
// trace must be byte-stable across same-seed faultnet runs (replica-
// side events timestamped by the harness's virtual clock), and every
// stats/metrics surface must be safe to scrape concurrently with a
// live workload and with Close — the -race build is the assertion.

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"bgla/internal/faultnet"
	"bgla/internal/obs"
	"bgla/internal/proto"
	"bgla/internal/wal"
)

// runTracedScenario runs a fixed workload on the deterministic harness
// with the consensus trace wired to faultnet virtual time and returns
// the trace.
func runTracedScenario(t *testing.T, seed int64) *obs.Tracer {
	t.Helper()
	tr := &obs.Tracer{}
	var net *faultnet.Net
	svc, err := NewService(ServiceConfig{
		Replicas: 4, Faulty: 1, Seed: seed, CheckpointEvery: 8,
		Obs: ObsConfig{
			ConsensusTrace: tr,
			// The Clock is first consulted after the NewTransport hook
			// has run (deliveries, pipeline enqueue stamps), so the
			// closure is safe.
			Clock: obs.ClockFunc(func() uint64 { return net.Now() }),
		},
		Hooks: &ServiceHooks{
			NewTransport: func(machines []proto.Machine, opts TransportOptions) Transport {
				net = faultnet.New(machines, faultnet.Options{Seed: seed, Delay: faultnet.Uniform{Lo: 1, Hi: 3}})
				return net
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 12; k++ {
		if err := svc.Update(AddCmd(fmt.Sprintf("tr-%02d", k))); err != nil {
			t.Fatalf("seed %d: update %d: %v", seed, k, err)
		}
		net.Quiesce()
	}
	if _, err := svc.Read(); err != nil {
		t.Fatalf("seed %d: read: %v", seed, err)
	}
	net.Quiesce()
	svc.Close()
	return tr
}

// TestConsensusTraceByteStable replays the same seeded scenario twice:
// the two consensus traces must be byte-identical (virtual-time
// timestamps, deterministic event fields), and the workload must have
// exercised the whole event taxonomy short of the storage layer.
func TestConsensusTraceByteStable(t *testing.T) {
	a := runTracedScenario(t, 7)
	b := runTracedScenario(t, 7)
	if a.Len() == 0 {
		t.Fatal("empty consensus trace")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		la, lb := a.Lines(), b.Lines()
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		for i := 0; i < n; i++ {
			if la[i] != lb[i] {
				t.Fatalf("trace diverged at line %d:\n  run A: %s\n  run B: %s", i, la[i], lb[i])
			}
		}
		t.Fatalf("trace lengths diverged: %d vs %d events", a.Len(), b.Len())
	}
	for _, kind := range []obs.EventKind{obs.EvPropose, obs.EvAck, obs.EvTally, obs.EvDecide, obs.EvCkptInstall} {
		if !bytes.Contains(a.Bytes(), []byte(" "+string(kind)+" ")) {
			t.Fatalf("trace has no %q events", kind)
		}
	}
	t.Logf("byte-stable consensus trace: %d events, fingerprint %x", a.Len(), a.Fingerprint())
}

// TestStatsScrapeRace hammers every observability surface — Stats,
// LatencyStats, and the Prometheus and vars expositions (which run the
// compaction and storage views) — concurrently with updates, reads,
// Scans, and finally Close. It asserts nothing beyond liveness and
// post-close stability; the -race build is the real check.
func TestStatsScrapeRace(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := NewStore(ShardedConfig{
		Shards: 2,
		ServiceConfig: ServiceConfig{
			Replicas: 4, Faulty: 1,
			CheckpointEvery: 16,
			DataDir:         t.TempDir(),
			Obs:             ObsConfig{Registry: reg},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = st.Stats()
				_ = st.LatencyStats()
				_ = st.Metrics().WritePrometheus(io.Discard)
				_ = st.Metrics().WriteVars(io.Discard)
			}
		}()
	}
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for k := 0; k < 8; k++ {
				if err := st.Update(AddCmd(fmt.Sprintf("rc-%d-%d", w, k))); err != nil {
					t.Errorf("worker %d op %d: %v", w, k, err)
					return
				}
				switch k % 3 {
				case 0:
					if _, err := st.Read(fmt.Sprintf("rc-%d-%d", w, k)); err != nil {
						t.Errorf("worker %d read: %v", w, err)
						return
					}
				case 1:
					if _, err := st.Scan(); err != nil && err != ErrScanContended {
						t.Errorf("worker %d scan: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	workers.Wait()
	// Close races the still-running scrapers: post-close reads must be
	// stable, not torn.
	st.Close()
	close(stop)
	scrapers.Wait()
	a, b := st.Stats(), st.Stats()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("post-close Stats unstable:\n  %+v\n  %+v", a, b)
	}
	if a.Total.Ops == 0 || a.Total.Flights == 0 {
		t.Fatalf("no pipeline activity recorded: %+v", a.Total)
	}
	if la, lb := st.LatencyStats(), st.LatencyStats(); !reflect.DeepEqual(la, lb) || la.Count == 0 {
		t.Fatalf("post-close LatencyStats unstable or empty (count %d)", la.Count)
	}
	if recs, syncs := sampleCounter(t, reg, "bgla_wal_records_total"), sampleCounter(t, reg, "bgla_wal_syncs_total"); recs == 0 || syncs == 0 {
		t.Fatalf("durable run recorded no WAL activity: %d records, %d syncs", recs, syncs)
	}
	var ea, eb bytes.Buffer
	if err := reg.WritePrometheus(&ea); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&eb); err != nil {
		t.Fatal(err)
	}
	if ea.String() != eb.String() {
		t.Fatal("post-close /metrics exposition unstable")
	}
}

// TestServiceCloseFreezesStats is the single-service close contract:
// reads taken after Close never change, because Close returns only
// once everything that feeds the counters has stopped.
func TestServiceCloseFreezesStats(t *testing.T) {
	svc, err := NewService(ServiceConfig{Replicas: 4, Faulty: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if err := svc.Update(AddCmd(fmt.Sprintf("fz-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	a := svc.BatchStats()
	if a.Ops == 0 {
		t.Fatalf("no ops recorded: %+v", a)
	}
	lat := svc.LatencyStats()
	if lat.Count == 0 {
		t.Fatal("no latency samples recorded")
	}
	var buf1, buf2 bytes.Buffer
	if err := svc.Metrics().WritePrometheus(&buf1); err != nil {
		t.Fatal(err)
	}
	svc.Close() // idempotent; must not disturb anything
	if b := svc.BatchStats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("BatchStats changed after close: %+v vs %+v", a, b)
	}
	if l2 := svc.LatencyStats(); !reflect.DeepEqual(lat, l2) {
		t.Fatal("LatencyStats changed after close")
	}
	if err := svc.Metrics().WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("post-close /metrics exposition unstable")
	}
}

// TestRegistryMatchesStats runs a seeded durable two-shard Store on the
// deterministic network and an in-memory filesystem, then restarts it
// from that filesystem once. After each Close every compaction and
// storage family must be present and read at least the floors below
// (the run is deterministic: the floors are its exact values when the
// per-topic stats structs were cross-checked against the registry),
// and the Stats view must agree with its registry families — also
// after a Scan issued past Close.
func TestRegistryMatchesStats(t *testing.T) {
	const seed = 13
	type floor struct {
		name   string
		labels []string
		min    [2]int64 // per generation
	}
	counters := []floor{
		{"bgla_ckpt_installs_total", nil, [2]int64{8, 24}},
		{"bgla_ckpt_certs_total", nil, [2]int64{6, 11}},
		{"bgla_ckpt_sigs_total", nil, [2]int64{8, 16}},
		{"bgla_ckpt_transfers_total", []string{"dir", "served"}, [2]int64{0, 0}},
		{"bgla_ckpt_transfers_total", []string{"dir", "received"}, [2]int64{0, 0}},
		{"bgla_ckpt_transfers_total", []string{"dir", "requested"}, [2]int64{0, 0}},
		{"bgla_wal_records_total", nil, [2]int64{264, 296}},
		{"bgla_wal_bytes_total", nil, [2]int64{15008, 31208}},
		{"bgla_wal_syncs_total", nil, [2]int64{264, 296}},
		{"bgla_wal_syncs_dropped_total", nil, [2]int64{0, 0}},
		{"bgla_wal_rotations_total", nil, [2]int64{8, 16}},
		{"bgla_wal_snapshots_total", nil, [2]int64{8, 16}},
		{"bgla_wal_errors_total", nil, [2]int64{0, 0}},
		{"bgla_wal_recovered_items_total", nil, [2]int64{0, 240}},
	}
	gauges := []floor{
		{"bgla_ckpt_epoch", nil, [2]int64{1, 3}},
		{"bgla_ckpt_base_len", nil, [2]int64{16, 48}},
	}
	minBaseLen := [2]int64{16, 48}

	mfs := wal.NewMemFS()
	for gen := 0; gen < 2; gen++ {
		reg := obs.NewRegistry()
		var net *faultnet.Net
		st, err := NewStore(ShardedConfig{Shards: 2, ServiceConfig: ServiceConfig{
			Replicas: 4, Faulty: 1, Seed: seed,
			CheckpointEvery: 16, DataDir: "data", SyncMode: "record",
			Obs: ObsConfig{Registry: reg},
			Hooks: &ServiceHooks{
				NewTransport: func(machines []proto.Machine, _ TransportOptions) Transport {
					net = faultnet.New(machines, faultnet.Options{Seed: seed, Delay: faultnet.Uniform{Lo: 1, Hi: 3}})
					return net
				},
				Storage: &StorageHooks{FS: mfs},
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 48; k++ {
			if err := st.Update(AddCmd(fmt.Sprintf("g%d-%02d", gen, k))); err != nil {
				t.Fatalf("gen %d: update %d: %v", gen, k, err)
			}
			net.Quiesce()
			if k%16 == 15 {
				if _, err := st.Scan(); err != nil {
					t.Fatalf("gen %d: scan: %v", gen, err)
				}
				net.Quiesce()
			}
		}
		st.Close()

		for _, c := range counters {
			if got := sampleCounter(t, reg, c.name, c.labels...); got < c.min[gen] {
				t.Errorf("gen %d: %s%v = %d, want >= %d", gen, c.name, c.labels, got, c.min[gen])
			}
		}
		for _, g := range gauges {
			if got := sampleGauge(t, reg, g.name); got < g.min[gen] {
				t.Errorf("gen %d: %s = %d, want >= %d", gen, g.name, got, g.min[gen])
			}
		}
		base := int64(-1)
		for _, r := range st.reps {
			if b := r.CompactionStats().BaseLen; base < 0 || b < base {
				base = b
			}
		}
		if base < minBaseLen[gen] {
			t.Errorf("gen %d: shallowest certified base %d, want >= %d", gen, base, minBaseLen[gen])
		}

		// A Scan after Close fails but still counts itself, in the
		// struct view and in the registry alike.
		if _, err := st.Scan(); err == nil {
			t.Fatalf("gen %d: scan after Close succeeded", gen)
		}
		stats := st.Stats()
		sameAsStats := func(want uint64, name string, labels ...string) {
			if got := sampleCounter(t, reg, name, labels...); got != int64(want) {
				t.Errorf("gen %d: %s%v = %d, Stats says %d", gen, name, labels, got, want)
			}
		}
		sameAsStats(stats.Scans, "bgla_scans_total")
		sameAsStats(stats.ScanPasses, "bgla_scan_passes_total")
		sameAsStats(stats.ScanRetries, "bgla_scan_retries_total")
		for s, bs := range stats.PerShard {
			sh := fmt.Sprint(s)
			sameAsStats(bs.Updates, "bgla_ops_total", "shard", sh, "type", "update")
			sameAsStats(bs.Flights, "bgla_flights_total", "shard", sh)
		}
		if stats.Scans != 4 {
			t.Errorf("gen %d: Stats().Scans = %d, want 3 before Close + 1 after", gen, stats.Scans)
		}
	}
}

// sampleCounter reads a counter series, failing the test when the
// registry has no such series.
func sampleCounter(t *testing.T, reg *obs.Registry, name string, labels ...string) int64 {
	t.Helper()
	v, ok := reg.SampleCounter(name, labels...)
	if !ok {
		t.Fatalf("registry has no counter %s%v", name, labels)
	}
	return int64(v)
}

// sampleGauge is sampleCounter for gauge series.
func sampleGauge(t *testing.T, reg *obs.Registry, name string, labels ...string) int64 {
	t.Helper()
	v, ok := reg.SampleGauge(name, labels...)
	if !ok {
		t.Fatalf("registry has no gauge %s%v", name, labels)
	}
	return v
}
