package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bgla/internal/workload"
)

// outDir holds everything a run writes: WAL data directories (removed
// when their cluster closes) and trace files. It is git-ignored.
const outDir = "out"

// runConfig is one benchmark run: one workload, one seed.
type runConfig struct {
	sp      spec
	seed    int64
	seconds float64
	trace   bool
	// setups is how many times the untraced run sets up (setup_s is the
	// median); the driver contract uses setupReps.
	setups int
}

// runResult is what one run reports.
type runResult struct {
	metrics    map[string]float64
	attempted  int
	failed     int
	violations []string
	notes      []string
}

func (r *runResult) correct() bool { return len(r.violations) == 0 }

// count books a phase's offered and failed ops.
func (r *runResult) count(what string, p phaseResult) {
	r.attempted += p.offered
	r.failed += p.failed
	if p.firstErr != nil {
		r.notes = append(r.notes, fmt.Sprintf("%s: %d failed (%d shed), first error: %v", what, p.failed, p.shed, p.firstErr))
	} else if p.shed > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%s: %d arrivals shed at %d outstanding", what, p.shed, maxOutstanding))
	}
}

// cluster is a built, preloaded target with the oracle that knows what
// it was fed and the schedule its phases draw from.
type cluster struct {
	t       target
	orc     *oracle
	sched   *schedule
	dataDir string
	took    time.Duration
}

func (c *cluster) close() {
	c.t.Close()
	if c.dataDir != "" {
		_ = os.RemoveAll(c.dataDir)
	}
}

// setUp is the timed set-up every workload pays: build the cluster,
// preload sp.preload updates closed-loop (several checkpoints install,
// so caches and anchors are warm), then one confirmed read.
func setUp(cfg runConfig, ins *instruments, res *runResult) (*cluster, error) {
	c := &cluster{orc: newOracle()}
	pre := newSchedule(cfg.sp, cfg.seed, workload.Mix{Update: 1}, c.orc).take(cfg.sp.preload)
	c.sched = newSchedule(cfg.sp, cfg.seed+1, cfg.sp.mix, c.orc)
	if cfg.sp.durable {
		dir, err := os.MkdirTemp(mkOutDir(), "data-")
		if err != nil {
			return nil, err
		}
		c.dataDir = dir
	}
	began := time.Now()
	t, err := build(cfg.sp, cfg.seed, c.dataDir, ins)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", cfg.sp.name, err)
	}
	c.t = t
	p := runClosed(t, c.orc, pre, satClients, 0)
	res.count("preload", p)
	res.attempted++
	if _, err := t.Scan(); err != nil {
		res.failed++
		c.close()
		return nil, fmt.Errorf("first confirmed read: %w", err)
	}
	c.took = time.Since(began)
	return c, nil
}

func mkOutDir() string {
	_ = os.MkdirAll(outDir, 0o755)
	return outDir
}

// openPhase runs d of open-loop load and books it.
func (c *cluster) openPhase(what string, d time.Duration, res *runResult) phaseResult {
	ops := c.sched.window(d)
	p := runOpen(c.t, c.orc, ops, d)
	res.count(what, p)
	return p
}

// satPhase runs d of closed-loop load from satClients goroutines. The
// pool is sized well above what the clients can consume in d.
func (c *cluster) satPhase(sp spec, d time.Duration, res *runResult) phaseResult {
	pool := c.sched.take(int(8 * sp.rate * d.Seconds()))
	p := runClosed(c.t, c.orc, pool, satClients, d)
	res.count("sat", p)
	return p
}

// verify runs the oracle's end-of-run checks.
func (c *cluster) verify(sp spec, res *runResult) {
	c.orc.checkSamples(c.t)
	res.attempted++
	if err := c.orc.checkFinal(c.t, sp.shards); err != nil {
		res.failed++
		res.notes = append(res.notes, err.Error())
	}
	res.violations = append(res.violations, c.orc.violations...)
	res.failed += len(c.orc.violations)
}

// runEndToEnd is the untraced run: cfg.setups set-ups (the last one
// stays up), the open phase, the sat phase, the oracle.
func runEndToEnd(cfg runConfig) (*runResult, error) {
	res := &runResult{metrics: map[string]float64{}}
	var c *cluster
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if c != nil {
			c.close()
		}
		var err error
		if c, err = setUp(cfg, nil, res); err != nil {
			return res, err
		}
		setups = append(setups, c.took.Seconds())
	}
	defer c.close()
	runtime.GC() // start every run's measured phases from a collected heap

	openDur := time.Duration(cfg.seconds * openShare * float64(time.Second))
	satDur := time.Duration(cfg.seconds*float64(time.Second)) - openDur
	open := c.openPhase("open", openDur, res)
	sat := c.satPhase(cfg.sp, satDur, res)
	c.verify(cfg.sp, res)

	m := res.metrics
	m["setup_s"] = median(setups)
	m["update_p50_ms"] = quantile(latencies(open.samples, workload.OpUpdate), 0.5)
	m["update_p95_ms"] = quantile(latencies(open.samples, workload.OpUpdate), 0.95)
	m["read_p50_ms"] = quantile(latencies(open.samples, workload.OpRead), 0.5)
	m["sat_ops_s"] = float64(len(sat.samples)) / sat.elapsed.Seconds()
	res.notes = append(res.notes, fmt.Sprintf("open: %d updates, %d reads, generator lateness p99 %.3f ms",
		len(latencies(open.samples, workload.OpUpdate)), len(latencies(open.samples, workload.OpRead)),
		quantile(toMillis(open.late), 0.99)))
	return res, nil
}

// tracePath names a workload's trace file.
func tracePath(workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}
