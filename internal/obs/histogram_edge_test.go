package obs

import (
	"math"
	"testing"
)

// Latency percentiles are read from Quantile over Delta'd registry
// histograms, so the estimator's edge behavior — empty windows,
// degenerate single-bucket distributions, overflow mass — must be
// pinned down exactly.

func TestQuantileEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		observe []uint64
		q       float64
		// The estimate must land in [lo, hi] (exact when lo == hi).
		lo, hi float64
	}{
		{"empty_p50", nil, 0.5, 0, 0},
		{"empty_p999", nil, 0.999, 0, 0},
		{"all_zeros", []uint64{0, 0, 0, 0}, 0.99, 0, 0},
		// All mass at value 100 lives in bucket [64,128); any quantile
		// must interpolate inside that bucket.
		{"single_bucket_p50", repeat(100, 1000), 0.5, 64, 128},
		{"single_bucket_p999", repeat(100, 1000), 0.999, 64, 128},
		// Clamped arguments behave like 0 and 1.
		{"q_below_zero", repeat(100, 10), -0.5, 64, 128},
		{"q_above_one", repeat(100, 10), 1.5, 64, 128},
		// All mass in the overflow bucket (top bucket 64 covers
		// [2^63, 2^64), whose upper bound is unrepresentable as uint64 —
		// bucketBounds yields hi <= lo there, so the estimator returns
		// the bucket floor 2^63 rather than interpolating past the type.
		{"overflow_bucket", []uint64{math.MaxUint64, math.MaxUint64, 1 << 63}, 0.5, math.Exp2(63), math.Exp2(63)},
		{"overflow_bucket_p999", []uint64{math.MaxUint64}, 0.999, math.Exp2(63), math.Exp2(63)},
		// p999 interpolation: 900 samples at 1 and 100 in [1024,2048)
		// put rank 999 at fraction 0.99 of the top bucket:
		// 1024 + 0.99*1024 = 2037.76.
		{"p999_interpolation", append(repeat(1, 900), repeat(1500, 100)...), 0.999, 2037.75, 2037.77},
		// The same shape at p50 stays in the low bucket.
		{"p999_shape_p50", append(repeat(1, 900), repeat(1500, 100)...), 0.5, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, v := range tc.observe {
				h.Observe(v)
			}
			got := h.Snapshot().Quantile(tc.q)
			if got < tc.lo || got > tc.hi {
				t.Fatalf("Quantile(%g) = %g, want in [%g, %g]", tc.q, got, tc.lo, tc.hi)
			}
		})
	}
}

func repeat(v uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestQuantileMonotone(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 5000; v += 7 {
		h.Observe(v)
	}
	s := h.Snapshot()
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.01 {
		cur := s.Quantile(q)
		if cur < prev {
			t.Fatalf("Quantile not monotone: q=%g gives %g < %g", q, cur, prev)
		}
		prev = cur
	}
}

// Merge of disjoint per-shard histograms is exactly how
// Store.LatencyStats aggregates: the merged distribution must place
// low quantiles in the low shard's bucket and high quantiles in the
// high shard's bucket, with exact count/sum addition.
func TestMergeDisjointShards(t *testing.T) {
	var fast, slow Histogram
	for i := 0; i < 100; i++ {
		fast.Observe(10)   // bucket [8,16)
		slow.Observe(1000) // bucket [512,1024)
	}
	m := fast.Snapshot()
	m.Merge(slow.Snapshot())
	if m.Count != 200 {
		t.Fatalf("merged count = %d, want 200", m.Count)
	}
	if m.Sum != 100*10+100*1000 {
		t.Fatalf("merged sum = %d, want %d", m.Sum, 100*10+100*1000)
	}
	// Rank 50 is halfway through the fast shard's 100 samples: 8+0.5*8.
	if got := m.Quantile(0.25); got != 12 {
		t.Fatalf("merged p25 = %g, want 12", got)
	}
	// Rank 150 is halfway through the slow shard's bucket: 512+0.5*512.
	if got := m.Quantile(0.75); got != 768 {
		t.Fatalf("merged p75 = %g, want 768", got)
	}
	// Merging an empty snapshot is the identity.
	before := m
	m.Merge(HistSnapshot{})
	if m != before {
		t.Fatal("merging an empty snapshot changed the histogram")
	}
}

func TestDeltaWindows(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Observe(10)
	}
	prev := h.Snapshot()
	for i := 0; i < 200; i++ {
		h.Observe(100_000)
	}
	d := h.Snapshot().Delta(prev)
	if d.Count != 200 {
		t.Fatalf("delta count = %d, want 200", d.Count)
	}
	if d.Sum != 200*100_000 {
		t.Fatalf("delta sum = %d", d.Sum)
	}
	// The interval quantile sees only the new slow samples — the old
	// fast mass must not drag it down (bucket of 100000 is [2^16,2^17)).
	if p50 := d.Quantile(0.5); p50 < 65536 || p50 > 131072 {
		t.Fatalf("delta p50 = %g, want in [65536,131072]", p50)
	}
	// Delta against itself is empty.
	cur := h.Snapshot()
	if z := cur.Delta(cur); z.Count != 0 || z.Sum != 0 {
		t.Fatalf("self-delta not empty: %+v", z)
	}
	// A torn prev "ahead" of cur saturates to zero, never underflows.
	ahead := cur
	ahead.Buckets[4] += 10
	ahead.Count += 10
	ahead.Sum += 100
	if z := cur.Delta(ahead); z.Count != 0 || z.Sum != 0 {
		t.Fatalf("saturating delta failed: %+v", z)
	}
}

func TestRegistrySampling(t *testing.T) {
	r := NewRegistry()
	r.Counter("decided_total", "shard", "0").Add(42)
	r.CounterFunc("pulled_total", func() uint64 { return 7 }, "shard", "1")
	r.Gauge("depth", "shard", "0").Set(-3)

	if v, ok := r.SampleCounter("decided_total", "shard", "0"); !ok || v != 42 {
		t.Fatalf("SampleCounter = %d,%v", v, ok)
	}
	if v, ok := r.SampleCounter("pulled_total", "shard", "1"); !ok || v != 7 {
		t.Fatalf("SampleCounter(func) = %d,%v", v, ok)
	}
	// Label order must not matter (canonicalized key).
	r.Counter("multi_total", "a", "1", "b", "2").Add(5)
	if v, ok := r.SampleCounter("multi_total", "b", "2", "a", "1"); !ok || v != 5 {
		t.Fatalf("SampleCounter label order = %d,%v", v, ok)
	}
	// Missing series and kind mismatches report absence, not zero-value
	// success — a reader must distinguish "no data" from "idle".
	if _, ok := r.SampleCounter("decided_total", "shard", "9"); ok {
		t.Fatal("missing labels reported present")
	}
	if _, ok := r.SampleCounter("nope_total"); ok {
		t.Fatal("missing family reported present")
	}
	if _, ok := r.SampleCounter("depth", "shard", "0"); ok {
		t.Fatal("kind mismatch reported present")
	}
	r.GaugeFunc("pulled_depth", func() int64 { return 9 })
	if v, ok := r.SampleGauge("depth", "shard", "0"); !ok || v != -3 {
		t.Fatalf("SampleGauge = %d,%v", v, ok)
	}
	if v, ok := r.SampleGauge("pulled_depth"); !ok || v != 9 {
		t.Fatalf("SampleGauge(func) = %d,%v", v, ok)
	}
	if _, ok := r.SampleGauge("decided_total", "shard", "0"); ok {
		t.Fatal("gauge read of a counter reported present")
	}
}
