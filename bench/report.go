package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// bench carries what every mode shares.
type bench struct {
	file    *benchmarkFile
	seconds float64
	seed    int64
	reps    int
}

func (b *bench) defs(trace bool) []metricDef {
	if trace {
		return b.file.PerLayer
	}
	return b.file.EndToEnd
}

// run performs one run and keeps exactly the metrics BENCHMARK.json
// lists for that kind of run; a listed metric the run did not compute
// (or computed as NaN/Inf) is an error.
func (b *bench) run(cfg runConfig) (*runResult, error) {
	var res *runResult
	var err error
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		return res, err
	}
	kept := map[string]float64{}
	for _, d := range b.defs(cfg.trace) {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %q: not computed or not finite (%v)", d.Name, v)
		}
		kept[d.Name] = v
	}
	res.metrics = kept
	return res, nil
}

// header prints what a reader needs to compare two reports.
func (b *bench) header(sp spec, cfg runConfig) {
	commit := "unknown" // stamped by go build inside a git checkout only
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				commit = s.Value[:12]
			}
		}
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v rate=%g ops/s preload=%d ops\n",
		sp.name, cfg.seed, cfg.seconds, cfg.trace, sp.rate, sp.preload)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s n=%d f=%d sat_clients=%d max_outstanding=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, replicas, faulty, satClients, maxOutstanding)
	if sp.deploy == deployWire {
		fmt.Println("# message delay: real loopback-TCP hops, none injected")
	} else {
		fmt.Println("# message delay: zero injected (chanet Jitter 0); latency is processor and scheduler time only")
	}
}

// driverRun is the driver's contract: one workload, one seed, the JSON
// object as the last line of standard output.
func (b *bench) driverRun(name string, trace bool) error {
	sp, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := runConfig{sp: sp, seed: b.seed, seconds: b.seconds, trace: trace, setups: setupReps}
	b.header(sp, cfg)
	res, err := b.run(cfg)
	if err != nil {
		return err
	}
	b.printRun(res, trace)
	line := driverLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]driverValue{}}
	for _, d := range b.defs(trace) {
		line.Metrics[d.Name] = driverValue{Value: res.metrics[d.Name], Unit: d.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	if !res.correct() {
		return errors.New("oracle failure")
	}
	return nil
}

func (b *bench) printRun(res *runResult, trace bool) {
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, v := range res.violations {
		fmt.Println("# ORACLE:", v)
	}
	for _, d := range b.defs(trace) {
		fmt.Printf("%-34s %14.4f %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
	fmt.Printf("%-34s %14d of %d attempted\n", "failed", res.failed, res.attempted)
}

// set is the result of reps runs of every selected (workload, kind).
type set map[string]map[string][]float64 // "<workload> trace=<0|1>" → metric → values

// collect runs reps seeds of the selected workloads and kinds.
func (b *bench) collect(name string, trace int, seed int64) (set, error) {
	out := set{}
	var failed []string
	for _, sp := range specs {
		if name != "" && sp.name != name {
			continue
		}
		for tr := 0; tr <= 1; tr++ {
			if trace >= 0 && tr != trace {
				continue
			}
			key := fmt.Sprintf("%s trace=%d", sp.name, tr)
			out[key] = map[string][]float64{}
			for r := 0; r < b.reps; r++ {
				cfg := runConfig{sp: sp, seed: seed + int64(r), seconds: b.seconds, trace: tr == 1, setups: setupReps}
				b.header(sp, cfg)
				res, err := b.run(cfg)
				if err != nil {
					return out, fmt.Errorf("%s: %w", key, err)
				}
				b.printRun(res, cfg.trace)
				for k, v := range res.metrics {
					out[key][k] = append(out[key][k], v)
				}
				out[key]["failed"] = append(out[key]["failed"], float64(res.failed))
				if !res.correct() || res.failed > 0 {
					failed = append(failed, fmt.Sprintf("%s seed %d", key, cfg.seed))
				}
			}
		}
	}
	if len(failed) > 0 {
		return out, fmt.Errorf("failures or oracle violations in: %s", strings.Join(failed, "; "))
	}
	return out, nil
}

// report is the one command that prints every metric by name with its
// unit; it exits non-zero on any failed op or oracle violation.
func (b *bench) report(name string, trace int) error {
	if name != "" {
		if _, ok := specByName(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	s, err := b.collect(name, trace, b.seed)
	b.summary(s)
	return err
}

// summary prints median and quartiles per metric over the reps.
func (b *bench) summary(s set) {
	fmt.Printf("\n## summary: median [q1, q3] over %d run(s) per row\n", b.reps)
	for _, sp := range specs {
		for tr := 0; tr <= 1; tr++ {
			key := fmt.Sprintf("%s trace=%d", sp.name, tr)
			vals, ok := s[key]
			if !ok {
				continue
			}
			fmt.Println("##", key)
			for _, d := range b.defs(tr == 1) {
				q1, q2, q3 := quartiles(vals[d.Name])
				fmt.Printf("%-34s %14.4f [%.4f, %.4f] %s\n", d.Name, q2, q1, q3, d.Unit)
			}
		}
	}
}

// selfcheck runs two full sets of untraced runs on this binary (the
// second on a second seed range) and fails if any end-to-end metric's
// medians disagree by more than that metric's own bound.
func (b *bench) selfcheck(name string) error {
	if b.reps < 3 {
		b.reps = 3
	}
	first, err := b.collect(name, 0, b.seed)
	if err != nil {
		return err
	}
	second, err := b.collect(name, 0, b.seed+1000)
	if err != nil {
		return err
	}
	fmt.Printf("\n## selfcheck: medians of %d runs, seeds %d.. vs %d..\n", b.reps, b.seed, b.seed+1000)
	var bad []string
	for _, sp := range specs {
		key := sp.name + " trace=0"
		if _, ok := first[key]; !ok {
			continue
		}
		fmt.Println("##", key)
		for _, d := range b.file.EndToEnd {
			a, c := median(first[key][d.Name]), median(second[key][d.Name])
			diff := math.Abs(c-a) / a
			verdict := "ok"
			if diff > d.Bound {
				verdict = "DISAGREE"
				bad = append(bad, key+" "+d.Name)
			}
			fmt.Printf("%-34s %12.4f %12.4f  diff %6.2f%%  bound %5.1f%%  %s\n", d.Name, a, c, 100*diff, 100*d.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: %s", strings.Join(bad, "; "))
	}
	return nil
}

// layersOnly prints the layer kernels without running a cluster.
func (b *bench) layersOnly() error {
	m := map[string]float64{}
	runKernels(m)
	for _, d := range b.file.PerLayer {
		if v, ok := m[d.Name]; ok {
			fmt.Printf("%-34s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	fmt.Fprintln(os.Stderr, "bench: kernels only; cluster-sourced metrics need a traced run (--trace 1)")
	return nil
}
