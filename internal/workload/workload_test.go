package workload

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bgla/internal/crdt"
)

// Fixed seeds throughout: these are statistical assertions with
// tolerance bands sized for the fixed sample counts, not flaky
// random-draw tests.

// TestZipfRankFrequencySlope checks that the empirical rank-frequency
// curve of the hand-rolled CDF sampler follows freq(rank) ∝ rank^-s:
// a least-squares fit of log(freq) vs log(rank) over the well-sampled
// head must recover -s within a tolerance band.
func TestZipfRankFrequencySlope(t *testing.T) {
	for _, s := range []float64{0.8, 1.0, 1.2} {
		const n, draws = 1000, 400_000
		z := NewZipf(n, s)
		rng := rand.New(rand.NewSource(42))
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[z.Rank(rng)]++
		}
		// Fit over ranks 1..64: every head rank has plenty of mass at
		// these draw counts, so sampling noise stays inside the band.
		var sx, sy, sxx, sxy float64
		pts := 0
		for r := 0; r < 64; r++ {
			if counts[r] == 0 {
				t.Fatalf("s=%g: head rank %d drew zero samples", s, r)
			}
			x := math.Log(float64(r + 1))
			y := math.Log(float64(counts[r]))
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			pts++
		}
		slope := (float64(pts)*sxy - sx*sy) / (float64(pts)*sxx - sx*sx)
		if math.Abs(slope-(-s)) > 0.1 {
			t.Fatalf("s=%g: fitted slope %.3f, want %.3f ± 0.1", s, slope, -s)
		}
		// Rank 0 must dominate rank 9 by about 10^s.
		ratio := float64(counts[0]) / float64(counts[9])
		want := math.Pow(10, s)
		if ratio < 0.7*want || ratio > 1.3*want {
			t.Fatalf("s=%g: head/rank-10 ratio %.2f, want ≈ %.2f", s, ratio, want)
		}
	}
}

// TestPoissonInterArrivals checks the exponential gap distribution:
// mean 1/λ and squared coefficient of variation 1 (variance = mean²),
// both within tolerance at the fixed sample count.
func TestPoissonInterArrivals(t *testing.T) {
	const rate, draws = 5000.0, 200_000
	p := Poisson{Rate: rate}
	rng := rand.New(rand.NewSource(7))
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		g := float64(p.Next(rng))
		sum += g
		sumsq += g * g
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	wantMean := 1e9 / rate
	if math.Abs(mean-wantMean)/wantMean > 0.02 {
		t.Fatalf("mean gap %.0f ns, want %.0f ± 2%%", mean, wantMean)
	}
	cv2 := variance / (mean * mean)
	if math.Abs(cv2-1) > 0.05 {
		t.Fatalf("CV² = %.3f, want 1 ± 0.05 (exponential gaps)", cv2)
	}
}

// TestBurstyModulation checks that the on/off process actually
// modulates: the aggregate rate sits between base and burst, and the
// gap distribution is overdispersed relative to Poisson (CV² > 1).
func TestBurstyModulation(t *testing.T) {
	b := &Bursty{BaseRate: 100, BurstRate: 10_000, OnDur: 0.05, OffDur: 0.05}
	rng := rand.New(rand.NewSource(11))
	const draws = 100_000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		g := float64(b.Next(rng))
		sum += g
		sumsq += g * g
	}
	mean := sum / draws
	aggRate := 1e9 / mean
	if aggRate <= 150 || aggRate >= 9000 {
		t.Fatalf("aggregate rate %.0f ops/s, want strictly between base and burst", aggRate)
	}
	cv2 := (sumsq/draws - mean*mean) / (mean * mean)
	if cv2 <= 1.2 {
		t.Fatalf("CV² = %.2f, want > 1.2 (bursty gaps must be overdispersed)", cv2)
	}
}

// TestDiurnalTraceReplay checks the trace-replay process tracks its
// slots: arrivals per slot must be proportional to the trace rates.
func TestDiurnalTraceReplay(t *testing.T) {
	trace := []float64{2000, 8000, 500, 4000}
	d := &Diurnal{Trace: trace, Slot: 0.1}
	rng := rand.New(rand.NewSource(3))
	slotNS := d.Slot * 1e9
	cycle := slotNS * float64(len(trace))
	counts := make([]float64, len(trace))
	var now float64
	const draws = 120_000
	for i := 0; i < draws; i++ {
		now += float64(d.Next(rng))
		slot := int(math.Mod(now, cycle) / slotNS)
		counts[slot]++
	}
	// Normalize both to fractions and compare slot by slot.
	var traceSum float64
	for _, r := range trace {
		traceSum += r
	}
	for i, r := range trace {
		want := r / traceSum
		got := counts[i] / draws
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("slot %d: arrival fraction %.3f, want %.3f ± 0.02", i, got, want)
		}
	}
}

// TestHotSetFraction checks the hot-set generator's traffic split.
func TestHotSetFraction(t *testing.T) {
	h := HotSet{N: 10_000, Hot: 4, Frac: 0.9}
	rng := rand.New(rand.NewSource(5))
	hot := 0
	const draws = 100_000
	for i := 0; i < draws; i++ {
		k := h.Next(rng)
		if k < keyName(h.Hot) {
			hot++
		}
	}
	got := float64(hot) / draws
	if math.Abs(got-h.Frac) > 0.01 {
		t.Fatalf("hot fraction %.3f, want %.3f ± 0.01", got, h.Frac)
	}
}

// TestMixBlend checks the op-kind ratios of a generated stream.
func TestMixBlend(t *testing.T) {
	g := NewGenerator(Config{
		Arrival: Poisson{Rate: 1e6},
		Keys:    Uniform{N: 100},
		Mix:     Mix{Update: 6, Read: 3, Scan: 1},
		Seed:    9,
	})
	counts := map[OpKind]float64{}
	const draws = 50_000
	for i := 0; i < draws; i++ {
		counts[g.Next().Kind]++
	}
	for kind, want := range map[OpKind]float64{OpUpdate: 0.6, OpRead: 0.3, OpScan: 0.1} {
		got := counts[kind] / draws
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("%s fraction %.3f, want %.3f ± 0.02", kind, got, want)
		}
	}
}

// TestUpdateBodiesRoute checks that generated update bodies carry the
// chosen key through crdt.RoutingKey — the property the shard router
// depends on for hot-key colocation.
func TestUpdateBodiesRoute(t *testing.T) {
	g := NewGenerator(Config{Arrival: Poisson{Rate: 1e6}, Keys: NewZipf(50, 1.1), Seed: 21})
	for i := 0; i < 2000; i++ {
		op := g.Next()
		key, ok := crdt.RoutingKey(op.Body)
		if !ok || key != op.Key {
			t.Fatalf("op %d: RoutingKey(%q) = %q,%v, want %q", i, op.Body, key, ok, op.Key)
		}
	}
}

// TestSameSeedIdenticalSequences: the replayability contract — equal
// configs and seeds emit equal op streams, different seeds diverge.
func TestSameSeedIdenticalSequences(t *testing.T) {
	mk := func(seed int64) *Generator {
		return NewGenerator(Config{
			Arrival: &Bursty{BaseRate: 500, BurstRate: 20_000, OnDur: 0.02, OffDur: 0.05},
			Keys:    NewZipf(500, 1.0),
			Mix:     Mix{Update: 8, Read: 2},
			Seed:    seed,
		})
	}
	a, b := mk(1234).Take(5000), mk(1234).Take(5000)
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("same seed diverged at op %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	c := mk(1235).Take(5000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestWorkloadFingerprintStable mirrors TestConsensusTraceByteStable:
// the canonical fingerprint of a fixed-seed stream is identical across
// double runs for every arrival × keygen combination.
func TestWorkloadFingerprintStable(t *testing.T) {
	arrivals := []func() Arrival{
		func() Arrival { return Poisson{Rate: 10_000} },
		func() Arrival { return &Bursty{BaseRate: 200, BurstRate: 50_000, OnDur: 0.01, OffDur: 0.03} },
		func() Arrival { return &Diurnal{Trace: []float64{1000, 9000, 300}, Slot: 0.05} },
	}
	keys := []func() KeyGen{
		func() KeyGen { return NewZipf(200, 1.2) },
		func() KeyGen { return Uniform{N: 200} },
		func() KeyGen { return HotSet{N: 200, Hot: 2, Frac: 0.8} },
	}
	for _, mkA := range arrivals {
		for _, mkK := range keys {
			cfg := Config{Arrival: mkA(), Keys: mkK(), Mix: Mix{Update: 7, Read: 2, Scan: 1}, Seed: 77}
			name := cfg.Arrival.Name() + "/" + cfg.Keys.Name()
			fpA := NewGenerator(Config{Arrival: mkA(), Keys: mkK(), Mix: cfg.Mix, Seed: 77}).Fingerprint(3000)
			fpB := NewGenerator(Config{Arrival: mkA(), Keys: mkK(), Mix: cfg.Mix, Seed: 77}).Fingerprint(3000)
			if fpA != fpB {
				t.Fatalf("%s: double-run fingerprints differ: %x vs %x", name, fpA, fpB)
			}
			fpC := NewGenerator(Config{Arrival: mkA(), Keys: mkK(), Mix: cfg.Mix, Seed: 78}).Fingerprint(3000)
			if fpA == fpC {
				t.Fatalf("%s: distinct seeds collided: %x", name, fpA)
			}
		}
	}
}

// TestArrivalTimesMonotone: At must strictly increase (gaps ≥ 1 ns).
func TestArrivalTimesMonotone(t *testing.T) {
	g := NewGenerator(Config{Arrival: Poisson{Rate: 1e9}, Keys: Uniform{N: 10}, Seed: 2})
	last := uint64(0)
	for i := 0; i < 10_000; i++ {
		op := g.Next()
		if op.At <= last {
			t.Fatalf("op %d: At %d not after %d", i, op.At, last)
		}
		last = op.At
	}
}

// TestDriverOpenLoop drives a fake target and checks the accounting
// identities Offered = Started + Shed and Started = Completed + Errors,
// plus per-kind latency capture.
func TestDriverOpenLoop(t *testing.T) {
	var updates, reads, scans atomic.Uint64
	var fail atomic.Uint64
	target := Target{
		Update: func(ctx context.Context, body string) error {
			if updates.Add(1)%50 == 0 {
				fail.Add(1)
				return errors.New("injected")
			}
			return nil
		},
		Read: func(ctx context.Context, key string) error { reads.Add(1); return nil },
		Scan: func(ctx context.Context) error { scans.Add(1); return nil },
	}
	d := NewDriver(DriverConfig{
		Target:  target,
		Gen:     NewGenerator(Config{Arrival: Poisson{Rate: 500_000}, Keys: Uniform{N: 64}, Mix: Mix{Update: 6, Read: 3, Scan: 1}, Seed: 4}),
		Ops:     4000,
		Workers: 8,
	})
	res := d.Run(context.Background())
	if res.Offered != 4000 {
		t.Fatalf("offered = %d, want 4000", res.Offered)
	}
	if res.Started+res.Shed != res.Offered {
		t.Fatalf("accounting: started %d + shed %d != offered %d", res.Started, res.Shed, res.Offered)
	}
	if res.Completed+res.Errors != res.Started {
		t.Fatalf("accounting: completed %d + errors %d != started %d", res.Completed, res.Errors, res.Started)
	}
	if res.Errors != fail.Load() {
		t.Fatalf("errors = %d, want %d", res.Errors, fail.Load())
	}
	if res.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if all := res.LatencyAll(); all.Count != res.Completed {
		t.Fatalf("latency count %d != completed %d", all.Count, res.Completed)
	}
	if res.Latency(OpUpdate).Count == 0 || res.Latency(OpRead).Count == 0 {
		t.Fatal("per-kind latency histograms empty")
	}
}

// TestDriverShedsWhenSaturated: a target far slower than the offered
// rate must shed (open loop), never block the pacing loop.
func TestDriverShedsWhenSaturated(t *testing.T) {
	slow := Target{Update: func(ctx context.Context, body string) error {
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
		}
		return nil
	}}
	d := NewDriver(DriverConfig{
		Target:  slow,
		Gen:     NewGenerator(Config{Arrival: Poisson{Rate: 1_000_000}, Keys: Uniform{N: 8}, Seed: 6}),
		Ops:     500,
		Workers: 2,
		Queue:   2,
	})
	done := make(chan Result, 1)
	go func() { done <- d.Run(context.Background()) }()
	select {
	case res := <-done:
		if res.Shed == 0 {
			t.Fatal("saturated run shed nothing — pacing loop must not block")
		}
		if res.Started+res.Shed != res.Offered {
			t.Fatalf("accounting broke under shedding: %+v", res)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("open-loop run wedged behind a slow target")
	}
}
