package exp

import (
	"strings"
	"testing"
)

// requirePass runs a generator and fails on violations.
func requirePass(t *testing.T, tbl *Table) {
	t.Helper()
	if !tbl.Pass {
		t.Fatalf("%s failed:\n%s", tbl.ID, tbl.Render())
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", tbl.ID)
	}
}

func TestE1FigureChain(t *testing.T)  { requirePass(t, FigureChain()) }
func TestE2Resilience(t *testing.T)   { requirePass(t, ResilienceBound()) }
func TestE3WTSDelays(t *testing.T)    { requirePass(t, WTSDelays(true)) }
func TestE4WTSMessages(t *testing.T)  { requirePass(t, WTSMessages(true)) }
func TestE5Refinements(t *testing.T)  { requirePass(t, WTSRefinements(true)) }
func TestE6GWTSMessages(t *testing.T) { requirePass(t, GWTSMessages(true)) }
func TestE7SbSDelays(t *testing.T)    { requirePass(t, SbSDelays(true)) }
func TestE8SbSVsWTS(t *testing.T)     { requirePass(t, SbSVsWTSMessages(true)) }
func TestE9GSbSVsGWTS(t *testing.T)   { requirePass(t, GSbSVsGWTSMessages(true)) }
func TestE10RSM(t *testing.T)         { requirePass(t, RSMWorkload(true)) }
func TestE11Baseline(t *testing.T)    { requirePass(t, BaselineComparison(true)) }
func TestE12Ablations(t *testing.T)   { requirePass(t, Ablations()) }
func TestE13WaitFree(t *testing.T)    { requirePass(t, WaitFree(true)) }
func TestE14Throughput(t *testing.T) {
	if testing.Short() {
		t.Skip("live-runtime experiment")
	}
	requirePass(t, Throughput(true))
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}, Pass: true}
	tbl.AddRow(1, 2.5)
	tbl.Note("hello %d", 7)
	out := tbl.Render()
	for _, want := range []string{"== X: demo [PASS]", "a", "bb", "1", "2.50", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	tbl.Pass = false
	if !strings.Contains(tbl.Render(), "[FAIL]") {
		t.Fatal("FAIL marker missing")
	}
}

func TestPluralAndItoa(t *testing.T) {
	if plural(1, "x") != "1 x" || plural(2, "x") != "2 xs" || plural(0, "x") != "0 xs" {
		t.Fatal("plural")
	}
	if itoa(0) != "0" || itoa(123) != "123" {
		t.Fatal("itoa")
	}
}

// TestAllAggregatesEveryExperiment exercises the cmd/bglabench entry
// point: all fourteen tables, trimmed sweeps, every one passing.
func TestAllAggregatesEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregate sweep")
	}
	tables := All(true)
	if len(tables) != 14 {
		t.Fatalf("All returned %d tables, want 14", len(tables))
	}
	seen := map[string]bool{}
	for _, tbl := range tables {
		if seen[tbl.ID] {
			t.Fatalf("duplicate experiment id %s", tbl.ID)
		}
		seen[tbl.ID] = true
		if !tbl.Pass {
			t.Errorf("%s failed:\n%s", tbl.ID, tbl.Render())
		}
		if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
			t.Errorf("%s is empty", tbl.ID)
		}
	}
	for i := 1; i <= 14; i++ {
		id := "E" + itoa(i)
		if !seen[id] {
			t.Errorf("experiment %s missing from All", id)
		}
	}
}
