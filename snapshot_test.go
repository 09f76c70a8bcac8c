package bgla

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSnapshotBasicScan(t *testing.T) {
	snap, err := NewSnapshot(ServiceConfig{Replicas: 4, Faulty: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := snap.Update("x", "1"); err != nil {
		t.Fatal(err)
	}
	if err := snap.Update("y", "2"); err != nil {
		t.Fatal(err)
	}
	got, err := snap.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if got["x"] != "1" || got["y"] != "2" {
		t.Fatalf("Scan = %v", got)
	}
	v, err := snap.ScanComponent("x")
	if err != nil || v != "1" {
		t.Fatalf("ScanComponent = %q, %v", v, err)
	}
	if miss, _ := snap.ScanComponent("nope"); miss != "" {
		t.Fatalf("unwritten component = %q", miss)
	}
}

func TestSnapshotOverwriteVisibility(t *testing.T) {
	snap, err := NewSnapshot(ServiceConfig{Replicas: 4, Faulty: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for i := 1; i <= 3; i++ {
		if err := snap.Update("reg", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		got, err := snap.ScanComponent("reg")
		if err != nil {
			t.Fatal(err)
		}
		if got != fmt.Sprintf("v%d", i) {
			t.Fatalf("after write %d: scan = %q", i, got)
		}
	}
}

func TestSnapshotScansComparable(t *testing.T) {
	// Scans interleaved with updates must be monotone: a later scan
	// reflects a superset of writes (here: same or newer per component).
	snap, err := NewSnapshot(ServiceConfig{Replicas: 4, Faulty: 1, Jitter: 300 * time.Microsecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var scans []map[string]string
	for i := 0; i < 4; i++ {
		if err := snap.Update("a", fmt.Sprintf("a%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := snap.Update("b", fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
		got, err := snap.Scan()
		if err != nil {
			t.Fatal(err)
		}
		scans = append(scans, got)
	}
	for i := 1; i < len(scans); i++ {
		// Values are vK with increasing K: later scans never regress.
		for _, comp := range []string{"a", "b"} {
			if scans[i][comp] < scans[i-1][comp] {
				t.Fatalf("scan %d regressed on %s: %q after %q",
					i, comp, scans[i][comp], scans[i-1][comp])
			}
		}
	}
}

func TestSnapshotWithMuteReplica(t *testing.T) {
	snap, err := NewSnapshot(ServiceConfig{Replicas: 4, Faulty: 1, MuteReplicas: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := snap.Update("k", "v"); err != nil {
		t.Fatal(err)
	}
	got, err := snap.ScanComponent("k")
	if err != nil || got != "v" {
		t.Fatalf("scan = %q, %v", got, err)
	}
	if !strings.Contains(snap.String(), "1 stamps") {
		t.Fatalf("String = %s", snap.String())
	}
}

func TestSnapshotRestartKeepsLaterWrite(t *testing.T) {
	// A restarted writer must stamp past the recovered puts: the LWW
	// view keeps the highest stamp, so a write restamped from 1 would
	// complete and stay invisible behind the old "a3".
	cfg := ServiceConfig{Replicas: 4, Faulty: 1, DataDir: t.TempDir(), SyncMode: "record"}
	s, err := NewSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a1", "a2", "a3"} {
		if err := s.Update("c", v); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s, err = NewSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Update("c", "b1"); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ScanComponent("c"); err != nil || got != "b1" {
		t.Fatalf("after restart ScanComponent(c) = %q, %v; want b1", got, err)
	}
}
