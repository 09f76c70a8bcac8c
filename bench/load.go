package main

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bgla"
	"bgla/internal/workload"
)

// op is one pre-generated client operation. Everything the program
// receives is generated before the phase that issues it starts, so
// generator CPU never lands inside a measured interval.
type op struct {
	at   time.Duration // intended arrival, from phase start (open loop only)
	kind workload.OpKind
	key  string
	body string // updates: PutCmd(key, id+1, "v<id+1>")
	id   int32  // updates: index in the oracle's tables
}

// schedule draws ops from internal/workload's seeded Generator and gives
// updates run-wide unique, increasing LWW stamps (the generator's own
// stamps restart per generator; the oracle needs them unique per run).
type schedule struct {
	gen *workload.Generator
	orc *oracle
}

func newSchedule(sp spec, seed int64, mix workload.Mix, orc *oracle) *schedule {
	return &schedule{
		gen: workload.NewGenerator(workload.Config{
			Arrival: workload.Poisson{Rate: sp.rate}, Keys: sp.keys(), Mix: mix, Seed: seed,
		}),
		orc: orc,
	}
}

func (s *schedule) next(base uint64) op {
	g := s.gen.Next()
	o := op{at: time.Duration(g.At - base), kind: g.Kind, key: g.Key}
	if g.Kind == workload.OpUpdate {
		o.id = s.orc.offer(g.Key)
		stamp := uint64(o.id) + 1
		o.body = bgla.PutCmd(g.Key, stamp, "v"+strconv.FormatUint(stamp, 10))
		s.orc.bodies[o.body] = o.id
	}
	return o
}

// take returns the next n ops (arrival times ignored by closed loops).
func (s *schedule) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next(0)
	}
	return ops
}

// window returns the ops arriving within d of the first one drawn.
func (s *schedule) window(d time.Duration) []op {
	first := s.gen.Next() // consumed only to anchor the window's clock
	var ops []op
	for {
		o := s.next(first.At)
		if o.at >= d {
			return ops
		}
		ops = append(ops, o)
	}
}

// fingerprint hashes a schedule (same seed ⇒ same fingerprint).
func fingerprint(ops []op) uint64 {
	h := uint64(14695981039346656037)
	for _, o := range ops {
		for _, c := range []byte(fmt.Sprintf("%d %d %s %s\n", o.at, o.kind, o.key, o.body)) {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	return h
}

// sample is one completed op: exact latency, no histogram buckets.
type sample struct {
	kind  workload.OpKind
	due   time.Duration // intended arrival (open loop) or issue time (closed loop)
	start time.Duration // when a worker picked the op up
	lat   time.Duration // completion − due
}

// tally is one worker goroutine's share of a phase, merged into the
// phaseResult when the worker ends (so the hot path takes no lock).
type tally struct {
	samples  []sample
	failed   int
	firstErr error
}

func (w *tally) add(s sample, err error) {
	if err == nil {
		w.samples = append(w.samples, s)
		return
	}
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func (w *tally) mergeInto(res *phaseResult, mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	res.samples = append(res.samples, w.samples...)
	res.failed += w.failed
	if res.firstErr == nil {
		res.firstErr = w.firstErr
	}
}

// phaseResult is what one load phase observed.
type phaseResult struct {
	samples  []sample
	late     []time.Duration // open loop: dispatch time − intended arrival
	offered  int
	failed   int // errors + shed
	shed     int
	firstErr error
	began    time.Time // sample.due and sample.start count from here
	elapsed  time.Duration
}

// exec runs one op against the target and feeds the oracle.
func exec(t target, orc *oracle, o op, reads *atomic.Int64) error {
	switch o.kind {
	case workload.OpUpdate:
		orc.issued[o.id] = true
		if err := t.Update(o.body); err != nil {
			return err
		}
		orc.ackedAt[o.id] = time.Since(orc.start)
		return nil
	default:
		scope, issuedAt := -1, time.Since(orc.start)
		read := t.Scan
		if o.kind == workload.OpRead {
			scope = t.Scope(o.key)
			read = func() ([]bgla.Item, error) { return t.Read(o.key) }
		}
		items, err := read()
		if err != nil {
			return err
		}
		if reads.Add(1)%sampleEvery == 0 {
			orc.sampleRead(items, scope, issuedAt)
		}
		return nil
	}
}

// runOpen issues ops on their pre-generated Poisson schedule from one
// pacing goroutine, regardless of how the system keeps up. Latency is
// timed from the intended arrival; at most maxOutstanding ops are in
// flight and an arrival beyond that is shed (a failure).
func runOpen(t target, orc *oracle, ops []op, d time.Duration) phaseResult {
	res := phaseResult{offered: len(ops), late: make([]time.Duration, 0, len(ops))}
	work := make(chan op, maxOutstanding)
	var outstanding, reads atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	res.began = start
	for w := 0; w < maxOutstanding; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local tally
			defer local.mergeInto(&res, &mu)
			for o := range work {
				began := time.Since(start)
				err := exec(t, orc, o, &reads)
				lat := time.Since(start) - o.at
				outstanding.Add(-1)
				local.add(sample{kind: o.kind, due: o.at, start: began, lat: lat}, err)
			}
		}()
	}
	for _, o := range ops {
		if wait := o.at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		res.late = append(res.late, time.Since(start)-o.at)
		if outstanding.Load() >= maxOutstanding {
			res.shed++
			continue
		}
		outstanding.Add(1)
		work <- o
	}
	close(work)
	wg.Wait()
	res.failed += res.shed
	res.elapsed = time.Since(start)
	if res.elapsed < d {
		res.elapsed = d
	}
	return res
}

// runClosed drives the target from clients goroutines, each issuing its
// next op when the previous one completes, until d elapses (d = 0: until
// ops are exhausted).
func runClosed(t target, orc *oracle, ops []op, clients int, d time.Duration) phaseResult {
	var res phaseResult
	var next, reads atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	res.began = start
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local tally
			defer local.mergeInto(&res, &mu)
			for d == 0 || time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				issued := time.Since(start)
				err := exec(t, orc, ops[i], &reads)
				local.add(sample{kind: ops[i].kind, due: issued, start: issued, lat: time.Since(start) - issued}, err)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.offered = len(res.samples) + res.failed
	return res
}

// latencies returns the sorted latencies of one op kind in milliseconds.
func latencies(samples []sample, kind workload.OpKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}
