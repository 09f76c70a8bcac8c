package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bgla"
	"bgla/internal/chanet"
	"bgla/internal/compact"
	"bgla/internal/core/gwts"
	"bgla/internal/ident"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/wal"
)

// maxRawSpans bounds the spans kept verbatim for the trace file; the
// per-(replica, kind) aggregates cover every event.
const maxRawSpans = 200_000

// span is one timed interval at a layer boundary, recorded from the
// bench's own decorators (in-program tracing is a later issue, so a
// replica span cannot name the client op that caused it: roots are
// client ops and replica handles; wal spans are children of the
// handle that was open on the replica owning the file).
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // -1 = root
	Name    string `json:"name"`   // op | handle | wal.write | wal.sync
	Kind    string `json:"kind"`   // op kind or message kind
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"` // -1 = client
	Due     int64  `json:"due_ns,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"` // duration minus child spans
}

// instruments are the S-sourced probes: decorators installed at the
// product's public seams (ServiceHooks.WrapReplica, StorageHooks.FS,
// ServiceHooks.NewTransport). They are installed for a whole traced
// run and record only while on is set, so one cluster serves both the
// untraced and the traced segment of that run.
type instruments struct {
	on atomic.Bool
	t0 time.Time

	nextID atomic.Int32

	mu     sync.Mutex
	spans  []span
	probes []*replicaProbe
	net    *chanet.Net
	fs     *probeFS
}

func newInstruments() *instruments { return &instruments{t0: time.Now()} }

func (ins *instruments) now() int64 { return int64(time.Since(ins.t0)) }

// reserve hands out a span id before the span ends, so children that
// finish first can name their parent.
func (ins *instruments) reserve() int32 { return ins.nextID.Add(1) - 1 }

// put stores a finished span (the first maxRawSpans ids only).
func (ins *instruments) put(s span) {
	if s.ID >= maxRawSpans {
		return
	}
	ins.mu.Lock()
	ins.spans = append(ins.spans, s)
	ins.mu.Unlock()
}

// newTransport is ServiceHooks.NewTransport: the same chanet the
// product builds by default (zero injected delay), kept so Sent() can
// be read.
func (ins *instruments) newTransport(machines []proto.Machine, opts bgla.TransportOptions) bgla.Transport {
	ins.net = chanet.New(machines, chanet.Options{MaxJitter: opts.Jitter, Seed: opts.Seed})
	return ins.net
}

// kindAgg accumulates every handle of one message kind on one replica.
type kindAgg struct {
	durs []int64 // ns, exact
	self int64
}

// replicaProbe decorates one replica machine. Its counters are written
// by the goroutine driving the machine and read by the bench under mu.
type replicaProbe struct {
	ins            *instruments
	shard, replica int
	inner          proto.Machine
	machine        *gwts.Machine  // for CompactionStats
	log            *wal.Persister // nil without a WAL

	// The handle in progress: set by the goroutine driving the machine,
	// read by the wal decorator (the same goroutine, except for the
	// final flush at Close).
	openID   atomic.Int32 // -1 when idle
	children atomic.Int64 // wal time inside it

	mu      sync.Mutex
	byKind  map[msg.Kind]*kindAgg
	msgsOut int64
	decides int64
}

func (ins *instruments) wrapReplica(shard, replica int, m proto.Machine) proto.Machine {
	p := &replicaProbe{ins: ins, shard: shard, replica: replica, inner: m, byKind: map[msg.Kind]*kindAgg{}}
	p.openID.Store(-1)
	switch v := m.(type) {
	case *gwts.Machine:
		p.machine = v
	case *wal.Persister:
		p.log = v
		p.machine, _ = v.Inner().(*gwts.Machine)
	default:
		return m // mute slot: nothing to time
	}
	ins.mu.Lock()
	ins.probes = append(ins.probes, p)
	ins.mu.Unlock()
	return p
}

func (p *replicaProbe) ID() ident.ProcessID   { return p.inner.ID() }
func (p *replicaProbe) Start() []proto.Output { return p.inner.Start() }

func (p *replicaProbe) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	if !p.ins.on.Load() {
		return p.inner.Handle(from, m)
	}
	id := p.ins.reserve()
	p.children.Store(0)
	p.openID.Store(id)
	start := p.ins.now()
	outs := p.inner.Handle(from, m)
	end := p.ins.now()
	sent := int64(0)
	for _, o := range outs {
		if o.To == proto.Broadcast {
			sent += replicas
		} else {
			sent++
		}
	}
	p.openID.Store(-1)
	children := p.children.Load()
	p.mu.Lock()
	agg := p.byKind[m.Kind()]
	if agg == nil {
		agg = &kindAgg{}
		p.byKind[m.Kind()] = agg
	}
	agg.durs = append(agg.durs, end-start)
	agg.self += end - start - children
	p.msgsOut += sent
	p.mu.Unlock()
	p.ins.put(span{ID: id, Parent: -1, Name: "handle", Kind: string(m.Kind()),
		Shard: p.shard, Replica: p.replica, Start: start, End: end, Self: end - start - children})
	return outs
}

// TakeEvents forwards the machine's events, counting decisions.
func (p *replicaProbe) TakeEvents() []proto.Event {
	evs := proto.DrainEvents(p.inner)
	if p.ins.on.Load() {
		n := int64(0)
		for _, e := range evs {
			if _, ok := e.(proto.DecideEvent); ok {
				n++
			}
		}
		if n > 0 {
			p.mu.Lock()
			p.decides += n
			p.mu.Unlock()
		}
	}
	return evs
}

// probeFS decorates wal.FS: every file it creates times Write and Sync
// and attributes them to the replica owning the file's directory.
type probeFS struct {
	wal.FS
	ins *instruments

	mu        sync.Mutex
	syncs     int64
	bytes     int64
	syncDurs  []int64
	writeBusy int64
}

func (ins *instruments) wrapFS(inner wal.FS) wal.FS {
	ins.fs = &probeFS{FS: inner, ins: ins}
	return ins.fs
}

func (fs *probeFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &probeFile{File: f, fs: fs, name: name}, nil
}

// ownerOf finds the probe whose WAL directory holds name.
func (ins *instruments) ownerOf(name string) *replicaProbe {
	dir := filepath.ToSlash(filepath.Dir(name))
	ins.mu.Lock()
	defer ins.mu.Unlock()
	for _, p := range ins.probes {
		if p.log != nil && filepath.ToSlash(p.log.Log().Dir()) == dir {
			return p
		}
	}
	return nil
}

type probeFile struct {
	wal.File
	fs    *probeFS
	name  string
	owner *replicaProbe // resolved on first use: the log opens before its replica is wrapped
}

// record books one wal span under the owner's open handle, if any.
func (f *probeFile) record(name string, start, end int64) {
	if f.owner == nil {
		f.owner = f.fs.ins.ownerOf(f.name)
	}
	parent, shard, replica := int32(-1), 0, -1
	if p := f.owner; p != nil {
		if parent = p.openID.Load(); parent >= 0 {
			p.children.Add(end - start)
		}
		shard, replica = p.shard, p.replica
	}
	f.fs.ins.put(span{ID: f.fs.ins.reserve(), Parent: parent, Name: name, Shard: shard, Replica: replica,
		Start: start, End: end, Self: end - start})
}

func (f *probeFile) Write(b []byte) (int, error) {
	if !f.fs.ins.on.Load() {
		return f.File.Write(b)
	}
	start := f.fs.ins.now()
	n, err := f.File.Write(b)
	end := f.fs.ins.now()
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	f.fs.writeBusy += end - start
	f.fs.mu.Unlock()
	f.record("wal.write", start, end)
	return n, err
}

func (f *probeFile) Sync() error {
	if !f.fs.ins.on.Load() {
		return f.File.Sync()
	}
	start := f.fs.ins.now()
	err := f.File.Sync()
	end := f.fs.ins.now()
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.syncDurs = append(f.fs.syncDurs, end-start)
	f.fs.mu.Unlock()
	f.record("wal.sync", start, end)
	return err
}

// replicaTotals sums the probes' observations.
type replicaTotals struct {
	busy, msgsOut, decidesAt0 int64
}

func (ins *instruments) snapshotProbes() []*replicaProbe {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	return append([]*replicaProbe(nil), ins.probes...)
}

// totals sums one shard's probes (shard < 0: all of them).
func (ins *instruments) totals(shard int) replicaTotals {
	var t replicaTotals
	for _, p := range ins.snapshotProbes() {
		if shard >= 0 && p.shard != shard {
			continue
		}
		p.mu.Lock()
		for _, agg := range p.byKind {
			for _, d := range agg.durs {
				t.busy += d
			}
		}
		t.msgsOut += p.msgsOut
		if p.replica == 0 {
			t.decidesAt0 += p.decides
		}
		p.mu.Unlock()
	}
	return t
}

// handleDurations returns every recorded Handle duration.
func (ins *instruments) handleDurations() []int64 {
	var out []int64
	for _, p := range ins.snapshotProbes() {
		p.mu.Lock()
		for _, agg := range p.byKind {
			out = append(out, agg.durs...)
		}
		p.mu.Unlock()
	}
	return out
}

// compaction sums the wrapped replicas' checkpoint counters (a wrapped
// slot drops out of Service.CompactionStats, so the probes keep their
// own references).
func (ins *instruments) compaction() (st compact.Stats) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	for _, p := range ins.probes {
		if p.machine != nil {
			c := p.machine.CompactionStats()
			st.Installs += c.Installs
			st.TransfersRequested += c.TransfersRequested
		}
	}
	return st
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Header     map[string]any `json:"header"`
	Aggregates []traceAgg     `json:"aggregates"`
	Dropped    int            `json:"spans_beyond_raw_limit"`
	Spans      []span         `json:"spans"`
}

type traceAgg struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Kind    string `json:"kind"`
	Count   int    `json:"count"`
	SumNS   int64  `json:"sum_ns"`
	SelfNS  int64  `json:"self_ns"`
	P50NS   int64  `json:"p50_ns"`
	P99NS   int64  `json:"p99_ns"`
}

// write dumps the spans kept in memory plus one root span per client
// op of the traced phase (always kept: they are few next to the replica
// spans the raw limit is there for).
func (ins *instruments) write(path string, header map[string]any, phase phaseResult) error {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	tf := traceFile{Header: header, Dropped: int(ins.nextID.Load()) - len(ins.spans)}
	base := int64(phase.began.Sub(ins.t0)) // op times count from the phase start, spans from t0
	for _, s := range phase.samples {
		tf.Spans = append(tf.Spans, span{ID: ins.reserve(), Parent: -1, Name: "op", Kind: s.kind.String(), Replica: -1,
			Due: base + int64(s.due), Start: base + int64(s.start), End: base + int64(s.due+s.lat), Self: int64(s.due + s.lat - s.start)})
	}
	tf.Spans = append(tf.Spans, ins.spans...)
	for _, p := range ins.probes {
		p.mu.Lock()
		for kind, agg := range p.byKind {
			ds := append([]int64(nil), agg.durs...)
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			var sum int64
			for _, d := range ds {
				sum += d
			}
			tf.Aggregates = append(tf.Aggregates, traceAgg{
				Shard: p.shard, Replica: p.replica, Kind: string(kind), Count: len(ds),
				SumNS: sum, SelfNS: agg.self, P50NS: ds[(len(ds)-1)/2], P99NS: ds[(len(ds)-1)*99/100],
			})
		}
		p.mu.Unlock()
	}
	sort.Slice(tf.Aggregates, func(i, j int) bool {
		a, b := tf.Aggregates[i], tf.Aggregates[j]
		return fmt.Sprint(a.Shard, a.Replica, a.Kind) < fmt.Sprint(b.Shard, b.Replica, b.Kind)
	})
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// sent is chanet's cross-process message count (0 on other transports).
func (ins *instruments) sent() int64 {
	if ins.net == nil {
		return 0
	}
	return ins.net.Sent()
}

// walTotals is what the FS decorator saw while recording (all zero
// when the workload opens no log).
func (ins *instruments) walTotals() (syncs, bytes int64, syncDurs []int64) {
	if ins.fs == nil {
		return 0, 0, nil
	}
	ins.fs.mu.Lock()
	defer ins.fs.mu.Unlock()
	return ins.fs.syncs, ins.fs.bytes, append([]int64(nil), ins.fs.syncDurs...)
}
