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
			// The Clock is only consulted during delivery, after the
			// NewTransport hook has run, so the closure is safe.
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
// CompactionStats, StorageStats, LatencyStats, and the Prometheus and
// vars expositions — concurrently with updates, reads, Scans, and
// finally Close. It asserts nothing beyond liveness and post-close
// snapshot stability; the -race build is the real check.
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
				_ = st.CompactionStats()
				_ = st.StorageStats()
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
	// Close races the still-running scrapers: post-close snapshots must
	// be frozen, not torn.
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
	if ss := st.StorageStats(); ss.Records == 0 || ss.Syncs == 0 {
		t.Fatalf("durable run recorded no WAL activity: %+v", ss)
	}
	if sa, sb := st.StorageStats(), st.StorageStats(); !reflect.DeepEqual(sa, sb) {
		t.Fatal("post-close StorageStats unstable")
	}
}

// TestServiceCloseFreezesStats is the single-service close-freeze
// contract: snapshots taken after Close never change, even though the
// registry's pull-mode views are still callable.
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
	svc.Close() // idempotent; must not re-freeze or disturb anything
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
