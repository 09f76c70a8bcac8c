// Package workload is the open-loop load substrate: pluggable arrival
// processes (Poisson, bursty on/off, diurnal trace replay), heavy-
// tailed key popularity (Zipf, uniform, hot-set), and mixed op blends
// (update/read/scan) generated from one seeded RNG so every run is
// replayable. It deliberately does not import package bgla: the driver
// targets a closure struct instead of *bgla.Store, so any harness can
// drive it. DESIGN.md §11 documents the taxonomy.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"bgla/internal/crdt"
)

// OpKind is the operation class of one generated op.
type OpKind int

const (
	OpUpdate OpKind = iota
	OpRead
	OpScan
)

func (k OpKind) String() string {
	switch k {
	case OpUpdate:
		return "update"
	case OpRead:
		return "read"
	default:
		return "scan"
	}
}

// Op is one scheduled client operation. At is the offset from the run
// start in virtual nanoseconds; Body is a ready-to-submit CRDT command
// for updates (routed by crdt.RoutingKey to the shard owning Key).
type Op struct {
	At   uint64 // ns since run start (open-loop arrival time)
	Kind OpKind
	Key  string
	Body string
}

// Arrival models an open-loop arrival process: Next returns the gap in
// nanoseconds until the following arrival. Implementations draw only
// from the supplied RNG so a seeded run replays exactly.
type Arrival interface {
	Name() string
	Next(rng *rand.Rand) uint64
}

// Poisson is a memoryless arrival process with exponential
// inter-arrival gaps at Rate ops/sec.
type Poisson struct {
	Rate float64 // mean arrivals per second
}

func (p Poisson) Name() string { return "poisson" }

func (p Poisson) Next(rng *rand.Rand) uint64 {
	if p.Rate <= 0 {
		return math.MaxUint64
	}
	gap := rng.ExpFloat64() / p.Rate * 1e9
	if gap < 1 {
		gap = 1
	}
	return uint64(gap)
}

// Bursty alternates Poisson phases: an "on" burst at BurstRate and an
// "off" lull at BaseRate, with exponentially distributed phase
// durations. It models on/off traffic (flash crowds, batch jobs).
type Bursty struct {
	BaseRate  float64 // ops/sec during lulls
	BurstRate float64 // ops/sec during bursts
	OnDur     float64 // mean burst length, seconds
	OffDur    float64 // mean lull length, seconds

	on   bool
	left float64 // ns remaining in the current phase
}

func (b *Bursty) Name() string { return "bursty" }

func (b *Bursty) Next(rng *rand.Rand) uint64 {
	for {
		if b.left <= 0 {
			b.on = !b.on
			mean := b.OffDur
			if b.on {
				mean = b.OnDur
			}
			b.left = rng.ExpFloat64() * mean * 1e9
			continue
		}
		rate := b.BaseRate
		if b.on {
			rate = b.BurstRate
		}
		gap := rng.ExpFloat64() / rate * 1e9
		if gap < 1 {
			gap = 1
		}
		if gap > b.left {
			// The phase ends before the next arrival: burn the remainder
			// and redraw in the next phase (thinning keeps the process
			// memoryless within phases).
			skip := b.left
			b.left = 0
			// Carry the already-elapsed time forward as a partial gap.
			if g := b.carry(rng, skip); g > 0 {
				return g
			}
			continue
		}
		b.left -= gap
		return uint64(gap)
	}
}

// carry consumes the tail of an expired phase and returns the total
// gap once an arrival lands inside a later phase.
func (b *Bursty) carry(rng *rand.Rand, elapsed float64) uint64 {
	for {
		if b.left <= 0 {
			b.on = !b.on
			mean := b.OffDur
			if b.on {
				mean = b.OnDur
			}
			b.left = rng.ExpFloat64() * mean * 1e9
			continue
		}
		rate := b.BaseRate
		if b.on {
			rate = b.BurstRate
		}
		gap := rng.ExpFloat64() / rate * 1e9
		if gap > b.left {
			elapsed += b.left
			b.left = 0
			continue
		}
		b.left -= gap
		total := elapsed + gap
		if total < 1 {
			total = 1
		}
		return uint64(total)
	}
}

// Diurnal replays a rate trace: Trace[i] is the target ops/sec during
// the i-th slot of Slot seconds, cycling. It models daily traffic
// curves compressed into bench time.
type Diurnal struct {
	Trace []float64 // ops/sec per slot
	Slot  float64   // slot length, seconds

	t float64 // ns into the cycle
}

func (d *Diurnal) Name() string { return "diurnal" }

func (d *Diurnal) Next(rng *rand.Rand) uint64 {
	if len(d.Trace) == 0 || d.Slot <= 0 {
		return math.MaxUint64
	}
	cycle := d.Slot * float64(len(d.Trace)) * 1e9
	var elapsed float64
	for {
		slot := int(d.t / (d.Slot * 1e9))
		rate := d.Trace[slot%len(d.Trace)]
		slotEnd := float64(slot+1) * d.Slot * 1e9
		if rate <= 0 {
			// Dead slot: jump to its end.
			elapsed += slotEnd - d.t
			d.t = slotEnd
			if d.t >= cycle {
				d.t -= cycle
			}
			continue
		}
		gap := rng.ExpFloat64() / rate * 1e9
		if d.t+gap > slotEnd {
			// Arrival falls past this slot: redraw in the next (thinned).
			elapsed += slotEnd - d.t
			d.t = slotEnd
			if d.t >= cycle {
				d.t -= cycle
			}
			continue
		}
		d.t += gap
		total := elapsed + gap
		if total < 1 {
			total = 1
		}
		return uint64(total)
	}
}

// KeyGen chooses the data-item key for one op.
type KeyGen interface {
	Name() string
	Next(rng *rand.Rand) string
}

// Zipf draws ranks from a Zipf distribution with exponent S over N
// keys via a precomputed CDF + binary search. math/rand's Zipf
// requires s > 1; capacity planning needs the heavy 0 < s ≤ 1 regime
// too, so the CDF is built directly from the harmonic weights
// 1/rank^S. Rank 0 is the hottest key.
type Zipf struct {
	N   int
	S   float64
	cdf []float64
}

// NewZipf precomputes the rank CDF for n keys with exponent s.
func NewZipf(n int, s float64) *Zipf {
	z := &Zipf{N: n, S: s, cdf: make([]float64, n)}
	var sum float64
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

func (z *Zipf) Name() string { return fmt.Sprintf("zipf(s=%g)", z.S) }

// Rank draws a popularity rank in [0, N).
func (z *Zipf) Rank(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, z.N-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (z *Zipf) Next(rng *rand.Rand) string { return keyName(z.Rank(rng)) }

// Uniform draws keys uniformly over N keys.
type Uniform struct{ N int }

func (u Uniform) Name() string               { return "uniform" }
func (u Uniform) Next(rng *rand.Rand) string { return keyName(rng.Intn(u.N)) }

// HotSet sends Frac of the traffic to the first Hot keys and the rest
// uniformly over the remaining N-Hot (an adversarially skewed shape:
// the hot set all routes to at most Hot shards).
type HotSet struct {
	N    int
	Hot  int
	Frac float64
}

func (h HotSet) Name() string { return fmt.Sprintf("hotset(%d@%g)", h.Hot, h.Frac) }

func (h HotSet) Next(rng *rand.Rand) string {
	if rng.Float64() < h.Frac {
		return keyName(rng.Intn(h.Hot))
	}
	return keyName(h.Hot + rng.Intn(h.N-h.Hot))
}

// keyName renders rank r as a stable key; the FNV shard router sees
// only this string, so equal ranks always land on the same shard.
func keyName(r int) string { return fmt.Sprintf("k%06d", r) }

// Mix is the op blend in relative weights.
type Mix struct {
	Update, Read, Scan int
}

// Config assembles a generator. The zero Mix defaults to update-only.
type Config struct {
	Arrival Arrival
	Keys    KeyGen
	Mix     Mix
	Seed    int64
}

// Generator produces the deterministic op stream. It is not safe for
// concurrent use; the driver consumes it from a single pacing
// goroutine.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	now   uint64 // ns since run start of the last emitted op
	stamp uint64 // LWW stamp for PutCmd bodies
}

// NewGenerator seeds a generator. Identical configs with identical
// seeds emit identical op sequences.
func NewGenerator(cfg Config) *Generator {
	if cfg.Mix.Update == 0 && cfg.Mix.Read == 0 && cfg.Mix.Scan == 0 {
		cfg.Mix.Update = 1
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next emits the next op of the stream.
func (g *Generator) Next() Op {
	g.now += g.cfg.Arrival.Next(g.rng)
	op := Op{At: g.now}
	total := g.cfg.Mix.Update + g.cfg.Mix.Read + g.cfg.Mix.Scan
	pick := g.rng.Intn(total)
	switch {
	case pick < g.cfg.Mix.Update:
		op.Kind = OpUpdate
		op.Key = g.cfg.Keys.Next(g.rng)
		g.stamp++
		op.Body = crdt.PutCmd(op.Key, g.stamp, fmt.Sprintf("v%d", g.stamp))
	case pick < g.cfg.Mix.Update+g.cfg.Mix.Read:
		op.Kind = OpRead
		op.Key = g.cfg.Keys.Next(g.rng)
	default:
		op.Kind = OpScan
	}
	return op
}

// Take emits the next n ops (testing and trace-dump convenience).
func (g *Generator) Take(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

// Fingerprint hashes the next n ops (FNV-1a over the canonical
// rendering) without retaining them — the determinism double-run
// check, mirroring obs.Tracer.Fingerprint.
func (g *Generator) Fingerprint(n int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	for i := 0; i < n; i++ {
		op := g.Next()
		mix(fmt.Sprintf("t=%d kind=%s key=%s body=%s\n", op.At, op.Kind, op.Key, op.Body))
	}
	return h
}
