package bgla

import (
	"strings"
	"testing"
)

func TestSolveWTSBasic(t *testing.T) {
	rep, err := Solve(Config{
		N: 4, F: 1, Algorithm: WTS,
		Proposals: map[int][]string{0: {"a"}, 1: {"b"}, 2: {"c"}, 3: {"d"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %s", strings.Join(rep.Violations, "; "))
	}
	if len(rep.Decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(rep.Decisions))
	}
	if rep.MaxDelays > 7 {
		t.Fatalf("MaxDelays = %d > 2f+5", rep.MaxDelays)
	}
	if rep.Messages == 0 || rep.PerProcessMax == 0 {
		t.Fatal("metrics missing")
	}
}

func TestSolveSbSBasic(t *testing.T) {
	rep, err := Solve(Config{
		N: 4, F: 1, Algorithm: SbS,
		Proposals: map[int][]string{0: {"a"}, 1: {"b"}, 2: {"c"}, 3: {"d"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.MaxDelays > 9 {
		t.Fatalf("MaxDelays = %d > 5+4f", rep.MaxDelays)
	}
}

// TestSolveConstantDelay: a constant delay only rescales the schedule,
// so the decision latency is exactly that multiple of the unit-delay
// latency; inverted bounds are a config error.
func TestSolveConstantDelay(t *testing.T) {
	props := map[int][]string{0: {"a"}, 1: {"b"}, 2: {"c"}, 3: {"d"}}
	for _, algo := range []Algorithm{WTS, SbS} {
		unit, err := Solve(Config{N: 4, F: 1, Algorithm: algo, Proposals: props})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Solve(Config{N: 4, F: 1, Algorithm: algo, Proposals: props, DelayLo: 3, DelayHi: 3})
		if err != nil {
			t.Fatal(err)
		}
		if unit.MaxDelays == 0 || slow.MaxDelays != 3*unit.MaxDelays {
			t.Fatalf("%v: MaxDelays %d under delay 3, want 3 × %d", algo, slow.MaxDelays, unit.MaxDelays)
		}
	}
	if _, err := Solve(Config{N: 4, F: 1, Algorithm: WTS, DelayLo: 5, DelayHi: 2}); err == nil {
		t.Fatal("DelayLo > DelayHi accepted")
	}
}

func TestSolveWithMutes(t *testing.T) {
	rep, err := Solve(Config{
		N: 4, F: 1, Algorithm: WTS,
		Proposals: map[int][]string{0: {"a"}, 1: {"b"}, 2: {"c"}},
		Mute:      []int{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if len(rep.Decisions) != 3 {
		t.Fatalf("decisions = %d, want 3", len(rep.Decisions))
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(Config{N: 3, F: 1, Algorithm: WTS}); err == nil {
		t.Fatal("must reject n<3f+1")
	}
	if _, err := Solve(Config{N: 4, F: 1, Algorithm: GWTS}); err == nil {
		t.Fatal("must reject generalized algorithm in Solve")
	}
	if _, err := Solve(Config{N: 4, F: 1, Algorithm: WTS, Mute: []int{1, 2}}); err == nil {
		t.Fatal("must reject too many mutes")
	}
}

func TestSolveRandomDelays(t *testing.T) {
	rep, err := Solve(Config{
		N: 7, F: 2, Algorithm: WTS,
		Proposals: map[int][]string{0: {"a"}, 3: {"b"}},
		DelayLo:   1, DelayHi: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

func TestSolveGeneralizedGWTS(t *testing.T) {
	rep, err := SolveGeneralized(GenConfig{
		N: 4, F: 1, Algorithm: GWTS,
		Values:    map[int][]string{0: {"x", "y"}, 1: {"z"}},
		MinRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Rounds < 2 {
		t.Fatalf("rounds = %d, want >= 2", rep.Rounds)
	}
	// Every seeded value reaches every final decision.
	for p, final := range rep.Final {
		found := 0
		for _, it := range final {
			if it.Body == "x" || it.Body == "y" || it.Body == "z" {
				found++
			}
		}
		if found != 3 {
			t.Fatalf("p%d final decision has %d/3 values: %v", p, found, final)
		}
	}
}

func TestSolveGeneralizedGSbS(t *testing.T) {
	rep, err := SolveGeneralized(GenConfig{
		N: 4, F: 1, Algorithm: GSbS,
		Values: map[int][]string{0: {"x"}, 2: {"y"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

func TestSolveGeneralizedValidation(t *testing.T) {
	if _, err := SolveGeneralized(GenConfig{N: 4, F: 1, Algorithm: WTS}); err == nil {
		t.Fatal("must reject one-shot algorithm")
	}
	if _, err := SolveGeneralized(GenConfig{N: 3, F: 1, Algorithm: GWTS}); err == nil {
		t.Fatal("must reject n<3f+1")
	}
}

func TestAlgorithmString(t *testing.T) {
	for a, want := range map[Algorithm]string{WTS: "WTS", SbS: "SbS", GWTS: "GWTS", GSbS: "GSbS", Algorithm(9): "Algorithm(9)"} {
		if a.String() != want {
			t.Fatalf("String(%d) = %s", int(a), a.String())
		}
	}
}

func TestMaxFaulty(t *testing.T) {
	if MaxFaulty(4) != 1 || MaxFaulty(10) != 3 {
		t.Fatal("MaxFaulty")
	}
}
