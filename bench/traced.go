package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"bgla"
	"bgla/internal/workload"
)

// procSnap is the process-level state read at a phase boundary.
type procSnap struct {
	cpu   time.Duration // user + system
	alloc uint64        // cumulative heap bytes allocated
	numGC uint32
	pause [256]uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc, numGC: ms.NumGC, pause: ms.PauseNs,
	}
}

// rssPeakMB is the process's peak resident set (Linux reports KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// gcPauseP99 is the p99 stop-the-world pause among the collections
// between two snapshots (the runtime keeps the last 256).
func gcPauseP99(before, after procSnap) float64 {
	var ps []float64
	for n := before.numGC + 1; n <= after.numGC && n-before.numGC <= 256; n++ {
		ps = append(ps, float64(after.pause[(n+255)%256])/1e6)
	}
	sort.Float64s(ps)
	return quantile(ps, 0.99)
}

// runTraced is the traced run. One cluster, built with the decorators
// installed, serves an open phase with them recording, bracketed by two
// open phases with them passing through, then quiescent scans where the
// workload has them. After it closes, restart cycles (durable only), the
// layer kernels and the single-node floor run on their own.
//
// Per-op layer ratios are taken over the traced open phase, between two
// snapshots of the product's own counters, so all of them describe the
// same interval and the same offered load as the end-to-end metrics.
func runTraced(cfg runConfig) (*runResult, error) {
	res := &runResult{metrics: map[string]float64{}}
	m := res.metrics
	ins := newInstruments()
	c, err := setUp(cfg, ins, res)
	if err != nil {
		return res, err
	}
	defer c.close() // idempotent: the success path closes before the kernels run
	runtime.GC()

	// Untraced, traced, untraced: latency drifts upward as history grows,
	// and with the traced segment in the middle a linear drift cancels
	// out of the traced ÷ untraced ratio.
	segment := time.Duration(cfg.seconds / 3 * float64(time.Second))
	plain := c.openPhase("open (untraced)", segment/2, res)

	before, procBefore := c.t.Counters(), readProc()
	sentBefore := ins.sent()
	compBefore := ins.compaction()
	ins.on.Store(true)
	traced := c.openPhase("open (traced)", segment, res)
	ins.on.Store(false)
	after, procAfter := c.t.Counters(), readProc()
	sentAfter, comp := ins.sent(), ins.compaction()
	plain2 := c.openPhase("open (untraced)", segment/2, res)
	plain.samples = append(plain.samples, plain2.samples...)
	plain.late = append(plain.late, plain2.late...)

	ops := float64(after.ops - before.ops)
	if ops == 0 {
		return res, fmt.Errorf("traced phase completed no operation")
	}
	elapsed := float64(traced.elapsed)

	// Client-visible extras that only some workloads have (end-to-end
	// metrics must exist on every workload, so these live here).
	m["service.update_p99_ms"] = quantile(latencies(plain.samples, workload.OpUpdate), 0.99)
	m["service.read_p99_ms"] = quantile(latencies(plain.samples, workload.OpRead), 0.99)
	m["bench.gen_late_p99_ms"] = quantile(toMillis(plain.late), 0.99)
	p50Plain := quantile(latencies(plain.samples, workload.OpUpdate), 0.5)
	p50Traced := quantile(latencies(traced.samples, workload.OpUpdate), 0.5)
	m["bench.trace_overhead_ratio"] = p50Traced / p50Plain

	// replica / gwts / shard (S: WrapReplica decorator).
	all, durs := ins.totals(-1), ins.handleDurations()
	m["replica.handle_busy_ns_per_op"] = float64(all.busy) / ops
	m["replica.handle_p99_us"] = quantile(toMillis(durs), 0.99) * 1e3
	m["replica.msgs_in_per_op"] = float64(len(durs)) / ops
	m["replica.msgs_out_per_op"] = float64(all.msgsOut) / ops
	m["replica.busy_share"] = float64(all.busy) / (elapsed * float64(runtime.GOMAXPROCS(0)))
	m["gwts.rounds"] = float64(all.decidesAt0)
	m["gwts.ops_per_round"] = 0
	if all.decidesAt0 > 0 {
		m["gwts.ops_per_round"] = ops / float64(all.decidesAt0)
	}
	m["shard.handle_busy_ns_per_op"] = 0
	shardOps := make([]float64, len(after.perShardOps))
	var maxShare, sumShare float64
	for s := range shardOps {
		shardOps[s] = float64(after.perShardOps[s] - before.perShardOps[s])
		sumShare += shardOps[s]
		if shardOps[s] > maxShare {
			maxShare = shardOps[s]
		}
		if busy := float64(ins.totals(s).busy); shardOps[s] > 0 && busy/shardOps[s] > m["shard.handle_busy_ns_per_op"] {
			m["shard.handle_busy_ns_per_op"] = busy / shardOps[s]
		}
	}
	m["shard.imbalance"] = maxShare / (sumShare / float64(len(shardOps)))

	// batch (R: pipeline counters and decision-latency histogram).
	flights := float64(after.flights - before.flights)
	m["batch.flights"] = flights
	m["batch.ops_per_flight"] = ops / flights
	m["batch.timeouts"] = float64(after.timeouts - before.timeouts)
	m["batch.decision_p50_ms"] = after.decision.Delta(before.decision).Quantile(0.5) / 1e6
	m["batch.queue_wait_p50_ms"] = p50Traced - m["batch.decision_p50_ms"]

	// transports (R: bgla_wire_*; S: chanet Sent()).
	m["tcpnet.wire_bytes_per_op"] = float64(after.wireBytes-before.wireBytes) / ops
	m["tcpnet.delta_frame_ratio"] = 0
	if frames := float64(after.deltaFrames + after.fullFrames - before.deltaFrames - before.fullFrames); frames > 0 {
		m["tcpnet.delta_frame_ratio"] = float64(after.deltaFrames-before.deltaFrames) / frames
	}
	m["tcpnet.nacks"] = float64(after.nacks - before.nacks)
	m["chanet.sent_per_op"] = float64(sentAfter-sentBefore) / ops

	// sig / compact (R: Cache.Stats of the bench-owned keychain,
	// CompactionStats through the decorator's references).
	m["sig.cache_hit_ratio"] = 0
	if wt, ok := c.t.(*wireTarget); ok {
		if hits, misses := wt.kc.Stats(); hits+misses > 0 {
			m["sig.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
	}
	m["compact.installs"] = float64(comp.Installs - compBefore.Installs)
	m["compact.transfers_requested"] = float64(comp.TransfersRequested)

	// wal (S: StorageHooks.FS decorator).
	syncs, bytes, syncDurs := ins.walTotals()
	m["wal.fsyncs_per_op"] = float64(syncs) / ops
	m["wal.bytes_per_op"] = float64(bytes) / ops
	m["wal.sync_p99_ms"] = quantile(toMillis(syncDurs), 0.99)
	var syncBusy int64
	for _, d := range syncDurs {
		syncBusy += d
	}
	m["wal.sync_busy_share"] = float64(syncBusy) / (elapsed * float64(replicas))

	// proc (getrusage / runtime.MemStats over the traced phase).
	m["proc.cpu_s_per_kop"] = (procAfter.cpu - procBefore.cpu).Seconds() / (ops / 1000)
	m["proc.alloc_bytes_per_op"] = float64(procAfter.alloc-procBefore.alloc) / ops
	m["proc.gc_pause_p99_ms"] = gcPauseP99(procBefore, procAfter)

	// Quiescent scans (sharded only): loaded scans lose the
	// double-collect race to writers and fail, and a workload may not
	// contain failing operations.
	m["store.scan_p50_ms"], m["shard.scan_passes_per_scan"], m["shard.scan_retries_per_scan"] = 0, 0, 0
	if cfg.sp.shards > 1 {
		scanQuiescent(c, res)
	}
	c.verify(cfg.sp, res)
	if err := ins.write(tracePath(cfg.sp.name), map[string]any{
		"workload": cfg.sp.name, "seed": cfg.seed, "rate_ops_s": cfg.sp.rate,
		"traced_seconds": segment.Seconds(), "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}, traced); err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}

	c.close()

	m["service.recover_s"] = 0
	if cfg.sp.durable {
		if err := recoverCycle(cfg, res); err != nil {
			return res, err
		}
	}
	runKernels(m)
	if err := singleNodeFloor(cfg, res); err != nil {
		return res, err
	}
	m["proc.rss_peak_mb"] = rssPeakMB()
	m["bench.fail_ratio"] = float64(res.failed) / float64(res.attempted)
	return res, nil
}

// scanQuiescent times Scans on the idle store and reads the scan
// loop's own counters around them.
func scanQuiescent(c *cluster, res *runResult) {
	const scans = 15
	before := c.t.Counters()
	var ms []float64
	for i := 0; i < scans; i++ {
		res.attempted++
		t0 := time.Now()
		if _, err := c.t.Scan(); err != nil {
			res.failed++
			res.notes = append(res.notes, "quiescent scan: "+err.Error())
			continue
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	after := c.t.Counters()
	sort.Float64s(ms)
	res.metrics["store.scan_p50_ms"] = quantile(ms, 0.5)
	if n := float64(after.scans - before.scans); n > 0 {
		res.metrics["shard.scan_passes_per_scan"] = float64(after.scanPasses-before.scanPasses) / n
		res.metrics["shard.scan_retries_per_scan"] = float64(after.scanRetries-before.scanRetries) / n
	}
}

// recoverCycle measures restart on a fresh durable cluster holding
// exactly the set-up's preload (so the recovered history has the same
// size whatever --seconds is): recoverCycles times it closes the
// cluster gracefully and reopens it on the same data directory, timing
// NewService → first confirmed read, which must still hold every
// acknowledged update. Recovery is measured apart from the loaded
// cluster because its cost grows faster than linearly with the decided
// history (about 1 s at 6 000 commands, over 10 s — the read times out —
// at 10 000, with gigabytes allocated), which a run-length-dependent
// history would turn into noise or failures. Power-loss durability is
// the wal.MemFS tests' job.
func recoverCycle(cfg runConfig, res *runResult) error {
	c, err := setUp(cfg, nil, res)
	if err != nil {
		return err
	}
	defer func() { c.close() }() // c.t is replaced by every cycle
	var took []float64
	for i := 0; i < recoverCycles; i++ {
		c.t.Close()
		t0 := time.Now()
		t, err := build(cfg.sp, cfg.seed, c.dataDir, nil)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		c.t = t
		res.attempted++
		items, err := t.Scan()
		if err != nil {
			res.failed++
			return fmt.Errorf("first read after restart: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
		c.orc.checkContainsAcked(items, fmt.Sprintf("read after restart %d", i+1))
	}
	res.violations = append(res.violations, c.orc.violations...)
	res.failed += len(c.orc.violations)
	res.metrics["service.recover_s"] = median(took)
	return nil
}

// singleNodeFloor runs mem-update's traffic against an n=1, f=0 Service:
// what the client pipeline and one replica cost with no replication.
func singleNodeFloor(cfg runConfig, res *runResult) error {
	sp, _ := specByName("mem-update")
	svc, err := bgla.NewService(bgla.ServiceConfig{Replicas: 1, Faulty: 0, Seed: cfg.seed, CheckpointEvery: sp.ckptEvery, OpTimeout: opTimeout})
	if err != nil {
		return fmt.Errorf("single-node service: %w", err)
	}
	c := &cluster{t: serviceTarget{svc}, orc: newOracle()}
	defer c.close()
	c.sched = newSchedule(sp, cfg.seed+2, sp.mix, c.orc)
	d := time.Duration(cfg.seconds / 12 * float64(time.Second))
	open := c.openPhase("n1 open", d, res)
	sat := c.satPhase(sp, d, res)
	c.verify(sp, res)
	res.metrics["service.n1_update_p50_ms"] = quantile(latencies(open.samples, workload.OpUpdate), 0.5)
	res.metrics["service.n1_sat_ops_s"] = float64(len(sat.samples)) / sat.elapsed.Seconds()
	return nil
}
