package workload

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"bgla/internal/obs"
)

// Target is the closure seam the driver submits ops through. Tests
// bind these to bgla.Store's UpdateCtx/ReadCtx/ScanCtx or to fakes; a
// closure struct keeps this package import-free of bgla.
type Target struct {
	Update func(ctx context.Context, body string) error
	Read   func(ctx context.Context, key string) error
	Scan   func(ctx context.Context) error
}

// DriverConfig shapes one open-loop run.
type DriverConfig struct {
	Target  Target
	Gen     *Generator
	Ops     int           // total ops to offer
	Workers int           // bounded in-flight concurrency
	Queue   int           // dispatch buffer; arrivals beyond it are shed
	Timeout time.Duration // per-op timeout (0 = none)
}

// Result summarizes one run. Offered = Started + Shed; Started =
// Completed + Errors. Latency is measured from each op's *intended*
// arrival time, so queueing delay behind a saturated store counts
// against it (no coordinated omission).
type Result struct {
	Offered   uint64
	Started   uint64
	Completed uint64
	Shed      uint64
	Errors    uint64
	Elapsed   time.Duration

	lat map[OpKind]*obs.Histogram
}

// Latency returns the client-side latency distribution for one op
// kind.
func (r *Result) Latency(kind OpKind) obs.HistSnapshot {
	if h := r.lat[kind]; h != nil {
		return h.Snapshot()
	}
	return obs.HistSnapshot{}
}

// LatencyAll merges the per-kind distributions.
func (r *Result) LatencyAll() obs.HistSnapshot {
	var m obs.HistSnapshot
	for _, h := range r.lat {
		m.Merge(h.Snapshot())
	}
	return m
}

// Driver paces a generator's op stream against a target in open loop:
// arrivals fire at their generated times whether or not earlier ops
// have completed, in-flight work is bounded by Workers, and arrivals
// that find the dispatch queue full are shed (recorded, not blocked —
// blocking would silently convert the run to closed loop).
type Driver struct {
	cfg DriverConfig

	offered   atomic.Uint64
	started   atomic.Uint64
	completed atomic.Uint64
	shed      atomic.Uint64
	errors    atomic.Uint64
}

// NewDriver validates and builds a driver.
func NewDriver(cfg DriverConfig) *Driver {
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 2 * cfg.Workers
	}
	return &Driver{cfg: cfg}
}

// Run offers cfg.Ops operations and returns once all dispatched ops
// have finished. Cancelling ctx stops pacing early and drains.
func (d *Driver) Run(ctx context.Context) Result {
	res := Result{lat: map[OpKind]*obs.Histogram{
		OpUpdate: {}, OpRead: {}, OpScan: {},
	}}
	work := make(chan timedOp, d.cfg.Queue)
	var wg sync.WaitGroup
	for w := 0; w < d.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range work {
				d.exec(ctx, op, &res)
			}
		}()
	}

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
pacing:
	for i := 0; i < d.cfg.Ops; i++ {
		op := d.cfg.Gen.Next()
		deadline := start.Add(time.Duration(op.At))
		if wait := time.Until(deadline); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break pacing
			}
		} else if ctx.Err() != nil {
			break pacing
		}
		d.offered.Add(1)
		select {
		case work <- timedOp{op: op, due: deadline}:
		default:
			d.shed.Add(1)
		}
	}
	close(work)
	wg.Wait()

	res.Offered = d.offered.Load()
	res.Started = d.started.Load()
	res.Completed = d.completed.Load()
	res.Shed = d.shed.Load()
	res.Errors = d.errors.Load()
	res.Elapsed = time.Since(start)
	return res
}

type timedOp struct {
	op  Op
	due time.Time
}

func (d *Driver) exec(ctx context.Context, t timedOp, res *Result) {
	d.started.Add(1)
	if d.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.cfg.Timeout)
		defer cancel()
	}
	var err error
	switch t.op.Kind {
	case OpUpdate:
		err = d.cfg.Target.Update(ctx, t.op.Body)
	case OpRead:
		err = d.cfg.Target.Read(ctx, t.op.Key)
	case OpScan:
		err = d.cfg.Target.Scan(ctx)
	}
	if err != nil {
		d.errors.Add(1)
		return
	}
	d.completed.Add(1)
	// Latency from the intended arrival, not the dispatch instant:
	// time spent queued behind a slow store is the user's experience.
	res.lat[t.op.Kind].Observe(uint64(time.Since(t.due)))
}
