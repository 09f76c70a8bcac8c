package bgla

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bgla/internal/wal"
)

// These tests exercise the production storage path end to end: real
// OS filesystem (t.TempDir), live chanet transport, full Service/Store
// restart cycles. The deterministic power-loss and torn-write
// scenarios live in faultnet_test.go on wal.MemFS.

func TestServiceDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := ServiceConfig{
		Replicas: 4, Faulty: 1,
		DataDir: dir, SyncMode: "record",
		CheckpointEvery: 8,
	}

	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := svc.Update(AddCmd(fmt.Sprintf("gen1-%02d", i))); err != nil {
			svc.Close()
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if recs, syncs := sampleCounter(t, svc.Metrics(), "bgla_wal_records_total"), sampleCounter(t, svc.Metrics(), "bgla_wal_syncs_total"); recs == 0 || syncs == 0 {
		svc.Close()
		t.Fatalf("no WAL activity: %d records, %d syncs", recs, syncs)
	}
	svc.Close()

	// Every replica has a data directory on disk.
	for i := 0; i < cfg.Replicas; i++ {
		if _, err := os.Stat(wal.ReplicaDir(dir, 0, i)); err != nil {
			t.Fatalf("replica %d data dir missing: %v", i, err)
		}
	}

	// The whole cluster restarts from local disk alone — no surviving
	// peer, no prior network state — and serves every decided command.
	svc2, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if sampleCounter(t, svc2.Metrics(), "bgla_wal_recovered_items_total") == 0 {
		t.Fatal("nothing recovered from disk")
	}
	state, err := svc2.Read()
	if err != nil {
		t.Fatal(err)
	}
	set := SetView(state)
	if len(set) != n {
		t.Fatalf("after restart SetView has %d items, want %d: %v", len(set), n, set)
	}

	// The restarted cluster keeps working and stays durable.
	if err := svc2.Update(AddCmd("gen2-00")); err != nil {
		t.Fatal(err)
	}
	state, err = svc2.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(SetView(state)); got != n+1 {
		t.Fatalf("post-restart update: %d items, want %d", got, n+1)
	}
}

func TestServiceDurableDoubleRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := ServiceConfig{Replicas: 4, Faulty: 1, DataDir: dir, CheckpointEvery: 6}
	total := 0
	for gen := 0; gen < 3; gen++ {
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		for i := 0; i < 7; i++ {
			if err := svc.Update(AddCmd(fmt.Sprintf("g%d-%d", gen, i))); err != nil {
				svc.Close()
				t.Fatalf("gen %d update %d: %v", gen, i, err)
			}
			total++
		}
		state, err := svc.Read()
		if err != nil {
			svc.Close()
			t.Fatalf("gen %d read: %v", gen, err)
		}
		if got := len(SetView(state)); got != total {
			svc.Close()
			t.Fatalf("gen %d sees %d items, want %d", gen, got, total)
		}
		svc.Close()
	}
}

func TestStoreDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedConfig{
		Shards: 2,
		ServiceConfig: ServiceConfig{
			Replicas: 4, Faulty: 1,
			DataDir: dir, CheckpointEvery: 8,
		},
	}
	st, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		if err := st.Update(AddCmd(fmt.Sprintf("key-%02d", i))); err != nil {
			st.Close()
			t.Fatalf("update %d: %v", i, err)
		}
	}
	st.Close()

	// Per-shard per-replica directory layout.
	for s := 0; s < cfg.Shards; s++ {
		for i := 0; i < cfg.Replicas; i++ {
			d := wal.ReplicaDir(dir, s, i)
			if _, err := os.Stat(filepath.FromSlash(d)); err != nil {
				t.Fatalf("shard %d replica %d data dir missing: %v", s, i, err)
			}
		}
	}

	st2, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if sampleCounter(t, st2.Metrics(), "bgla_wal_recovered_items_total") == 0 {
		t.Fatal("store recovered nothing")
	}
	state, err := st2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(SetView(state)); got != n {
		t.Fatalf("after restart Scan has %d items, want %d", got, n)
	}
}

func TestServiceBadSyncMode(t *testing.T) {
	if _, err := NewService(ServiceConfig{
		Replicas: 4, Faulty: 1,
		DataDir: t.TempDir(), SyncMode: "fsync-sometimes",
	}); err == nil {
		t.Fatal("NewService accepted an unknown sync mode")
	}
}
