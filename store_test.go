package bgla

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"bgla/internal/proto"
)

func newTestStore(t *testing.T, shards int, mutes [][]int) *Store {
	t.Helper()
	st, err := NewStore(ShardedConfig{
		Shards: shards,
		ServiceConfig: ServiceConfig{
			Replicas: 4, Faulty: 1,
			Jitter: 100 * time.Microsecond, Seed: 7,
		},
		ShardMutes: mutes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// TestStoreMixedWorkload drives every CRDT command family through a
// store at S ∈ {1, 2, 4, 8} and checks that the merged Scan folds to
// exactly the same views an unsharded cluster would produce.
func TestStoreMixedWorkload(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			testStoreMixedWorkload(t, shards)
		})
	}
}

func testStoreMixedWorkload(t *testing.T, shards int) {
	st := newTestStore(t, shards, nil)

	keys := []string{"alpha", "beta", "gamma", "delta", "weird|key", `esc\`}
	for i, k := range keys {
		if err := st.Update(PutCmd(k, uint64(i+1), "v-"+k)); err != nil {
			t.Fatal(err)
		}
		if err := st.Update(AddCmd("elem-" + k)); err != nil {
			t.Fatal(err)
		}
		if err := st.Update(IncCmd(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Update(RemCmd("elem-alpha")); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(PutCmd("alpha", 9, "v2-alpha")); err != nil {
		t.Fatal(err)
	}

	state, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	m := MapView(state)
	for _, k := range keys {
		want := "v-" + k
		if k == "alpha" {
			want = "v2-alpha"
		}
		if m[k] != want {
			t.Fatalf("MapView[%q] = %q, want %q (full: %v)", k, m[k], want, m)
		}
	}
	set := SetView(state)
	if len(set) != len(keys)-1 {
		t.Fatalf("SetView = %v, want %d elements (remove wins)", set, len(keys)-1)
	}
	for _, e := range set {
		if e == "elem-alpha" {
			t.Fatal("removed element still present")
		}
	}
	if got := CounterView(state); got != 1+2+3+4+5+6 {
		t.Fatalf("CounterView = %d, want 21", got)
	}

	if shards == 1 {
		return
	}
	// Work actually spread: more than one shard carried flights.
	stats := st.Stats()
	busy := 0
	for _, s := range stats.PerShard {
		if s.Flights > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d shards carried traffic: %+v", busy, stats.PerShard)
	}
}

// TestStorePointRead: Read(key) is served entirely by key's shard and
// covers every command addressing that key.
func TestStorePointRead(t *testing.T) {
	st := newTestStore(t, 4, nil)
	if err := st.Update(PutCmd("k1", 1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(PutCmd("k1", 2, "b")); err != nil {
		t.Fatal(err)
	}
	items, err := st.Read("k1")
	if err != nil {
		t.Fatal(err)
	}
	if got := MapView(items)["k1"]; got != "b" {
		t.Fatalf(`Read("k1") folded to %q, want "b"`, got)
	}
	// The shard placement is stable and public.
	if st.ShardOfKey("k1") != st.ShardOfKey("k1") || st.ShardOfKey("k1") >= st.Shards() {
		t.Fatal("ShardOfKey unstable or out of range")
	}
}

// TestStoreSingleShardMatchesService: S=1 must behave exactly like the
// Service (same lattice, same views), Scan included.
func TestStoreSingleShardMatchesService(t *testing.T) {
	st := newTestStore(t, 1, nil)
	for i := 0; i < 5; i++ {
		if err := st.Update(IncCmd(2)); err != nil {
			t.Fatal(err)
		}
	}
	state, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if got := CounterView(state); got != 10 {
		t.Fatalf("CounterView = %d, want 10", got)
	}
	st2 := st.Stats()
	if st2.Scans != 1 || st2.ScanPasses != 1 {
		t.Fatalf("single-shard scan must not rescan: %+v", st2)
	}
}

// TestStoreWrapReplicaSeesMuteStandIn: a mute (shard, slot) is built
// the way every slot is — its mute stand-in goes through the
// WrapReplica hook like a correct replica does.
func TestStoreWrapReplicaSeesMuteStandIn(t *testing.T) {
	got := map[[2]int]proto.Machine{}
	st, err := NewStore(ShardedConfig{
		Shards: 2,
		ServiceConfig: ServiceConfig{
			Replicas: 4, Faulty: 1,
			Hooks: &ServiceHooks{WrapReplica: func(shard, replica int, m proto.Machine) proto.Machine {
				got[[2]int{shard, replica}] = m
				return nil
			}},
		},
		ShardMutes: [][]int{nil, {3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(got) != 8 {
		t.Fatalf("WrapReplica saw %d slots, want all 8", len(got))
	}
	for slot, m := range got {
		_, mute := m.(*muteMachine)
		if want := slot == [2]int{1, 3}; mute != want {
			t.Fatalf("slot %v: WrapReplica got %T, mute stand-in = %v, want %v", slot, m, mute, want)
		}
	}
	if err := st.Update(IncCmd(1)); err != nil {
		t.Fatal(err)
	}
}

// TestStorePerShardMutes: one mute Byzantine replica per shard (a
// different one in each) — every shard still decides with f=1.
func TestStorePerShardMutes(t *testing.T) {
	st := newTestStore(t, 4, [][]int{{0}, {1}, {2}, {3}})
	for i := 0; i < 12; i++ {
		if err := st.Update(PutCmd(fmt.Sprintf("k%d", i), 1, "v")); err != nil {
			t.Fatal(err)
		}
	}
	state, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(MapView(state)); got != 12 {
		t.Fatalf("MapView has %d keys, want 12", got)
	}
}

// TestStoreScanMonotone: successive scans never shrink and stay
// comparable while writes interleave.
func TestStoreScanMonotone(t *testing.T) {
	st := newTestStore(t, 2, nil)
	var prev []Item
	for i := 0; i < 6; i++ {
		if err := st.Update(AddCmd(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
		cur, err := st.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(cur) < len(prev) {
			t.Fatalf("scan shrank: %d < %d", len(cur), len(prev))
		}
		if !containsItems(cur, prev) {
			t.Fatalf("scan %d not a superset of its predecessor", i)
		}
		prev = cur
	}
}

func containsItems(big, small []Item) bool {
	set := make(map[Item]bool, len(big))
	for _, it := range big {
		set[it] = true
	}
	for _, it := range small {
		if !set[it] {
			return false
		}
	}
	return true
}

func TestStoreValidation(t *testing.T) {
	base := ServiceConfig{Replicas: 4, Faulty: 1}
	cases := []ShardedConfig{
		{Shards: -1, ServiceConfig: base},
		{Shards: 2, ServiceConfig: base, ShardMutes: [][]int{{0}, {1}, {2}}}, // more mute lists than shards
		{Shards: 2, ServiceConfig: base, ShardMutes: [][]int{{0, 1}}},        // 2 mutes > f=1 in shard 0
		{Shards: 2, ServiceConfig: base, ShardMutes: [][]int{{7}}},           // replica out of range
		{Shards: 1, ServiceConfig: ServiceConfig{Replicas: 3, Faulty: 1}},    // n < 3f+1
	}
	for i, cfg := range cases {
		if st, err := NewStore(cfg); err == nil {
			st.Close()
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
	// Process-wide mutes count against every shard's budget.
	cfg := ShardedConfig{
		Shards:        2,
		ServiceConfig: ServiceConfig{Replicas: 4, Faulty: 1, MuteReplicas: []int{0}},
		ShardMutes:    [][]int{{1}},
	}
	if st, err := NewStore(cfg); err == nil {
		st.Close()
		t.Fatal("global+shard mutes above f accepted")
	}
}

// TestStoreCloseIdempotent: Close twice sequentially, then concurrently
// from many goroutines while updates are in flight — callers must get
// clean errors (or completed ops), never panics or deadlocks.
func TestStoreCloseIdempotent(t *testing.T) {
	st, err := NewStore(ShardedConfig{
		Shards:        2,
		ServiceConfig: ServiceConfig{Replicas: 4, Faulty: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				// Errors are expected once the store closes; the point
				// is that nothing panics, deadlocks or double-frees.
				_ = st.Update(IncCmd(1))
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.Close()
		}()
	}
	wg.Wait()
	st.Close() // and once more after everything settled
}

// TestStoreRoutingMatchesViews: identical command streams through a
// sharded and an unsharded deployment produce identical views —
// partitioning is invisible to the data model.
func TestStoreRoutingMatchesViews(t *testing.T) {
	st := newTestStore(t, 3, nil)
	svc, err := NewService(ServiceConfig{Replicas: 4, Faulty: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	bodies := []string{
		PutCmd("x", 1, "1"), PutCmd("y", 1, "1"), PutCmd("x", 2, "2"),
		AddCmd("m"), AddCmd("n"), RemCmd("n"),
		IncCmd(4), DecCmd(1),
	}
	for _, b := range bodies {
		if err := st.Update(b); err != nil {
			t.Fatal(err)
		}
		if err := svc.Update(b); err != nil {
			t.Fatal(err)
		}
	}
	shardState, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	svcState, err := svc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(MapView(shardState), MapView(svcState)) {
		t.Fatalf("map views diverge: %v vs %v", MapView(shardState), MapView(svcState))
	}
	if !reflect.DeepEqual(SetView(shardState), SetView(svcState)) {
		t.Fatalf("set views diverge: %v vs %v", SetView(shardState), SetView(svcState))
	}
	if CounterView(shardState) != CounterView(svcState) {
		t.Fatalf("counter views diverge: %d vs %d", CounterView(shardState), CounterView(svcState))
	}
}
