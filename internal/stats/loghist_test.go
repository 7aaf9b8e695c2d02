package stats

import (
	"math/rand"
	"sort"
	"testing"
)

func TestLogHistExactSmallValues(t *testing.T) {
	var h LogHist
	for v := uint64(0); v < 32; v++ {
		h.Observe(v)
	}
	if h.Count() != 32 {
		t.Fatalf("count %d, want 32", h.Count())
	}
	if h.Sum() != 31*32/2 {
		t.Fatalf("sum %d, want %d", h.Sum(), 31*32/2)
	}
	if h.Max() != 31 {
		t.Fatalf("max %d, want 31", h.Max())
	}
	// Values below the linear cutoff are stored exactly: every percentile
	// lands on the true order statistic.
	if got := h.Percentile(0.5); got != 15 {
		t.Fatalf("p50 %d, want 15", got)
	}
	if got := h.Percentile(1.0); got != 31 {
		t.Fatalf("p100 %d, want 31", got)
	}
}

func TestLogHistEmpty(t *testing.T) {
	var h LogHist
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Percentile(p); got != 0 {
			t.Fatalf("empty percentile(%v) = %d, want 0", p, got)
		}
	}
}

// TestLogHistPercentileBounds checks the bucketing error bound: every
// reported percentile must be >= the exact order statistic and within
// the bucket's relative width (1/16 above the five exact mantissa bits,
// ~6.7%) of it.
func TestLogHistPercentileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h LogHist
	var vals []uint64
	for i := 0; i < 20_000; i++ {
		// Mix magnitudes: uniform in the exponent like real latencies.
		v := uint64(1) << uint(rng.Intn(30))
		v += uint64(rng.Int63n(int64(v)))
		h.Observe(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		rank := int(p*float64(len(vals))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		exact := vals[rank]
		got := h.Percentile(p)
		if got < exact {
			t.Errorf("p%.1f: %d below exact %d (upper-bound contract broken)", p*100, got, exact)
		}
		if float64(got) > float64(exact)*1.08 {
			t.Errorf("p%.1f: %d exceeds exact %d by more than bucket width", p*100, got, exact)
		}
	}
}

func TestLogHistMergeMatchesCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, all LogHist
	for i := 0; i < 5_000; i++ {
		v := uint64(rng.Int63n(1 << 40))
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() || a.Max() != all.Max() {
		t.Fatal("merge lost observations")
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if a.Percentile(p) != all.Percentile(p) {
			t.Fatalf("p%v: merged %d != combined %d", p, a.Percentile(p), all.Percentile(p))
		}
	}
}

// TestLogHistObserveZeroAlloc pins the steady-state histogram path the
// benchmark job tracks: Observe and Percentile allocate nothing.
func TestLogHistObserveZeroAlloc(t *testing.T) {
	var h LogHist
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(123_456)
	}); n != 0 {
		t.Fatalf("Observe allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = h.Percentile(0.99)
	}); n != 0 {
		t.Fatalf("Percentile allocates %.1f objects/op, want 0", n)
	}
}

func BenchmarkLogHistObserve(b *testing.B) {
	var h LogHist
	vals := make([]uint64, 1024)
	r := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = uint64(r.Int63n(1 << 40))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i&1023])
	}
}
