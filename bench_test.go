package bgla_test

// One benchmark per experiment table (E1..E13): each
// regenerates its table through the internal/exp harness and reports
// the headline metric, so `go test -bench=.` reproduces the paper's
// quantitative claims end to end. Micro-benchmarks of the protocol hot
// paths follow.

import (
	"fmt"
	"strconv"
	"testing"

	"bgla"
	"bgla/internal/exp"
)

// benchTable runs a table generator under the benchmark loop and fails
// the benchmark if the experiment's expectations do not hold.
func benchTable(b *testing.B, gen func() *exp.Table, metricCol string, metricName string) {
	b.Helper()
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = gen()
	}
	if !last.Pass {
		b.Fatalf("experiment failed:\n%s", last.Render())
	}
	if metricCol != "" {
		// Report the metric of the last row (largest configuration).
		idx := -1
		for i, c := range last.Columns {
			if c == metricCol {
				idx = i
			}
		}
		if idx >= 0 && len(last.Rows) > 0 {
			if v, err := strconv.ParseFloat(last.Rows[len(last.Rows)-1][idx], 64); err == nil {
				b.ReportMetric(v, metricName)
			}
		}
	}
}

func BenchmarkE1FigureChain(b *testing.B) {
	benchTable(b, exp.FigureChain, "|decision|", "decision-size")
}

func BenchmarkE2ResilienceBound(b *testing.B) {
	benchTable(b, exp.ResilienceBound, "", "")
}

func BenchmarkE3WTSDelays(b *testing.B) {
	benchTable(b, func() *exp.Table { return exp.WTSDelays(true) }, "", "")
}

func BenchmarkE4WTSMessages(b *testing.B) {
	benchTable(b, func() *exp.Table { return exp.WTSMessages(true) }, "per-proc max", "msgs/proc")
}

func BenchmarkE5Refinements(b *testing.B) {
	benchTable(b, func() *exp.Table { return exp.WTSRefinements(true) }, "max refinements", "refinements")
}

func BenchmarkE6GWTSMessages(b *testing.B) {
	benchTable(b, func() *exp.Table { return exp.GWTSMessages(true) }, "per-proc msgs", "msgs/proc")
}

func BenchmarkE7SbSDelays(b *testing.B) {
	benchTable(b, func() *exp.Table { return exp.SbSDelays(true) }, "", "")
}

func BenchmarkE8SbSMessages(b *testing.B) {
	benchTable(b, func() *exp.Table { return exp.SbSVsWTSMessages(true) }, "SbS per-proc", "msgs/proc")
}

func BenchmarkE9GSbSMessages(b *testing.B) {
	benchTable(b, func() *exp.Table { return exp.GSbSVsGWTSMessages(true) }, "GSbS per-dec", "msgs/decision")
}

func BenchmarkE10RSM(b *testing.B) {
	benchTable(b, func() *exp.Table { return exp.RSMWorkload(true) }, "avg op delays", "delays/op")
}

func BenchmarkE11Baseline(b *testing.B) {
	benchTable(b, func() *exp.Table { return exp.BaselineComparison(true) }, "msg overhead", "byz-overhead-x")
}

func BenchmarkE12Ablations(b *testing.B) {
	benchTable(b, exp.Ablations, "", "")
}

func BenchmarkE13WaitFree(b *testing.B) {
	benchTable(b, func() *exp.Table { return exp.WaitFree(true) }, "", "")
}

// --- protocol micro-benchmarks -------------------------------------------

func proposalsFor(n int) map[int][]string {
	out := make(map[int][]string, n)
	for i := 0; i < n; i++ {
		out[i] = []string{fmt.Sprintf("v%d", i)}
	}
	return out
}

func benchSolve(b *testing.B, algo bgla.Algorithm, n, f int) {
	b.Helper()
	props := proposalsFor(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := bgla.Solve(bgla.Config{N: n, F: f, Algorithm: algo, Proposals: props, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			b.Fatalf("violations: %v", rep.Violations)
		}
	}
}

func BenchmarkWTSDecideN4(b *testing.B)  { benchSolve(b, bgla.WTS, 4, 1) }
func BenchmarkWTSDecideN16(b *testing.B) { benchSolve(b, bgla.WTS, 16, 5) }
func BenchmarkSbSDecideN4(b *testing.B)  { benchSolve(b, bgla.SbS, 4, 1) }
func BenchmarkSbSDecideN16(b *testing.B) { benchSolve(b, bgla.SbS, 16, 5) }

func BenchmarkGWTSRoundsN4(b *testing.B) {
	values := proposalsFor(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := bgla.SolveGeneralized(bgla.GenConfig{
			N: 4, F: 1, Algorithm: bgla.GWTS, Values: values, MinRounds: 3, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			b.Fatalf("violations: %v", rep.Violations)
		}
	}
}

func BenchmarkGSbSRoundsN4(b *testing.B) {
	values := proposalsFor(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := bgla.SolveGeneralized(bgla.GenConfig{
			N: 4, F: 1, Algorithm: bgla.GSbS, Values: values, MinRounds: 2, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			b.Fatalf("violations: %v", rep.Violations)
		}
	}
}
