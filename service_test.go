package bgla

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bgla/internal/lattice"
	"bgla/internal/rsm"
)

func TestServiceCounter(t *testing.T) {
	svc, err := NewService(ServiceConfig{Replicas: 4, Faulty: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 3; i++ {
		if err := svc.Update(IncCmd(5)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if err := svc.Update(DecCmd(3)); err != nil {
		t.Fatal(err)
	}
	state, err := svc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got := CounterView(state); got != 12 {
		t.Fatalf("counter = %d, want 12", got)
	}
}

func TestServiceSetAndMap(t *testing.T) {
	svc, err := NewService(ServiceConfig{Replicas: 4, Faulty: 1, Jitter: time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	mustUpdate := func(cmd string) {
		t.Helper()
		if err := svc.Update(cmd); err != nil {
			t.Fatal(err)
		}
	}
	mustUpdate(AddCmd("apple"))
	mustUpdate(AddCmd("pear"))
	mustUpdate(RemCmd("pear"))
	mustUpdate(PutCmd("color", 1, "red"))
	mustUpdate(PutCmd("color", 2, "green"))
	state, err := svc.Read()
	if err != nil {
		t.Fatal(err)
	}
	set := SetView(state)
	if len(set) != 1 || set[0] != "apple" {
		t.Fatalf("SetView = %v", set)
	}
	if m := MapView(state); m["color"] != "green" {
		t.Fatalf("MapView = %v", m)
	}
}

func TestServiceReadMonotonic(t *testing.T) {
	svc, err := NewService(ServiceConfig{Replicas: 4, Faulty: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var prev int64 = -1
	for i := 0; i < 4; i++ {
		if err := svc.Update(IncCmd(1)); err != nil {
			t.Fatal(err)
		}
		state, err := svc.Read()
		if err != nil {
			t.Fatal(err)
		}
		got := CounterView(state)
		if got <= prev {
			t.Fatalf("read %d not monotone: %d after %d", i, got, prev)
		}
		// Update Visibility: the i+1-th increment must be visible.
		if got != int64(i+1) {
			t.Fatalf("read %d = %d, want %d", i, got, i+1)
		}
		prev = got
	}
}

func TestServiceToleratesMuteReplica(t *testing.T) {
	svc, err := NewService(ServiceConfig{Replicas: 4, Faulty: 1, MuteReplicas: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Update(AddCmd("x")); err != nil {
		t.Fatal(err)
	}
	state, err := svc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got := SetView(state); len(got) != 1 || got[0] != "x" {
		t.Fatalf("SetView = %v", got)
	}
}

func TestServiceConcurrentCallers(t *testing.T) {
	svc, err := NewService(ServiceConfig{Replicas: 4, Faulty: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				if err := svc.Update(AddCmd(fmt.Sprintf("g%d-%d", g, k))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	state, err := svc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(SetView(state)); got != 8 {
		t.Fatalf("set size = %d, want 8", got)
	}
}

func TestServiceValidation(t *testing.T) {
	if _, err := NewService(ServiceConfig{Replicas: 3, Faulty: 1}); err == nil {
		t.Fatal("must reject n<3f+1")
	}
	if _, err := NewService(ServiceConfig{Replicas: 4, Faulty: 1, MuteReplicas: []int{1, 2}}); err == nil {
		t.Fatal("must reject too many mutes")
	}
	if svc, err := NewService(ServiceConfig{Replicas: 4, Faulty: 1, OpTimeout: -1}); err == nil {
		svc.Close()
		t.Fatal("must reject a negative OpTimeout (every operation would fail at once)")
	}
}

func TestServiceUpdateBodiesDeduplicated(t *testing.T) {
	// Two Updates with identical bodies must both count (unique
	// sequence suffixes).
	svc, err := NewService(ServiceConfig{Replicas: 4, Faulty: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Update(IncCmd(1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Update(IncCmd(1)); err != nil {
		t.Fatal(err)
	}
	state, err := svc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got := CounterView(state); got != 2 {
		t.Fatalf("counter = %d, want 2 (identical bodies must stay distinct)", got)
	}
}

// anchoredValue builds a decided value the way a gateway meets it: n
// items of the client's history, one read marker per 100, anchored on a
// checkpoint base holding the first three quarters.
func anchoredValue(tb testing.TB, n int) lattice.Set {
	tb.Helper()
	items := make([]lattice.Item, n)
	for i := range items {
		if i%100 == 0 {
			items[i] = rsm.NopCmd(clientID, i)
		} else {
			items[i] = rsm.UniqueCmd(clientID, i, IncCmd(1))
		}
	}
	base := lattice.FromItems(items[:n*3/4]...)
	v, ok := lattice.FromItems(items...).Rebase(lattice.NewBase(base))
	if !ok {
		tb.Fatal("rebase")
	}
	return v
}

// TestReadItemsMatchesStripNops pins the confirmed-read result to the
// strip-then-materialise definition it replaces.
func TestReadItemsMatchesStripNops(t *testing.T) {
	for _, v := range []lattice.Set{lattice.Empty(), anchoredValue(t, 1), anchoredValue(t, 250), anchoredValue(t, 1000)} {
		got, want := readItems(v), fromLatticeSet(rsm.StripNops(v))
		if len(got) != len(want) || len(got) != rsm.CountCmds(v) {
			t.Fatalf("|v|=%d: readItems has %d items, want %d", v.Len(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("|v|=%d: item %d = %v, want %v", v.Len(), i, got[i], want[i])
			}
		}
	}
}

// TestReadItemsOneAlloc: materialising a confirmed read of a 16k-item
// anchored value allocates the result slice and nothing else.
func TestReadItemsOneAlloc(t *testing.T) {
	v := anchoredValue(t, 16_384)
	if allocs := testing.AllocsPerRun(10, func() { _ = readItems(v) }); allocs != 1 {
		t.Fatalf("readItems allocs = %v, want 1", allocs)
	}
}

// BenchmarkReadItems times the gateway side of a confirmed read against
// history size: one walk of the anchored value, no sort, no hash.
func BenchmarkReadItems(b *testing.B) {
	for _, n := range []int{4_096, 16_384, 65_536} {
		v := anchoredValue(b, n)
		b.Run(fmt.Sprintf("history=%dk", n/1024), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				readItems(v)
			}
		})
	}
}
