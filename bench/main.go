// Command bench is the repository's one benchmark: four named workloads
// against the BGLA replicated state machine, end-to-end metrics with
// fixed regression bounds, per-layer metrics measured from outside the
// layers, and a traced run. BENCHMARK.json (repository root) lists the
// workloads and metrics; README.md in this directory explains them.
//
//	bash bench/run.sh --workload mem-update --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh                  # every workload, untraced and traced
//	bash bench/run.sh -reps 5          # medians and quartiles over 5 seeds
//	bash bench/run.sh -selfcheck       # two sets, compared against the bounds
//	bash bench/run.sh -layers          # the layer kernels only
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: all)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced (default: both)")
	reps := flag.Int("reps", 1, "runs per workload, seeds seed..seed+reps-1; reports median and quartiles")
	selfcheck := flag.Bool("selfcheck", false, "run two sets and fail if an end-to-end metric differs by more than its bound")
	layers := flag.Bool("layers", false, "run only the layer kernels")
	flag.Parse()

	bf, err := loadBenchmarkFile()
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}
	b := &bench{file: bf, seconds: *seconds, seed: *seed, reps: *reps}
	switch {
	case *layers:
		err = b.layersOnly()
	case *selfcheck:
		err = b.selfcheck(*workloadName)
	case *workloadName != "" && *trace >= 0 && *reps == 1:
		err = b.driverRun(*workloadName, *trace == 1)
	default:
		err = b.report(*workloadName, *trace)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// driverLine is the last line of a single run's standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
