package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

// TestSeedMatchesNew reseeds a generator that has already drawn from another
// stream: it must restart exactly where New(seed) starts.
func TestSeedMatchesNew(t *testing.T) {
	r := New(99)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	r.Seed(42)
	want := New(42)
	for i := 0; i < 1000; i++ {
		if g, w := r.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d: reseeded %#x, New %#x", i, g, w)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c := r.Split(new(RNG))
	// The child stream must not replicate the parent stream.
	r2 := New(7)
	r2.Uint64() // consume the draw Split consumed
	for i := 0; i < 100; i++ {
		if c.Uint64() == r2.Uint64() {
			t.Fatalf("split stream tracks parent at draw %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(4)
	}
	if got := sum / n; math.Abs(got-4) > 0.1 {
		t.Errorf("mean = %v, want ~4", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(17)
	const p = 0.25
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	want := (1 - p) / p // mean number of failures
	if got := sum / n; math.Abs(got-want) > 0.1 {
		t.Errorf("mean = %v, want ~%v", got, want)
	}
}

func TestDiscreteProbabilities(t *testing.T) {
	d := NewDiscrete([]float64{1, 2, 7})
	if d.N() != 3 {
		t.Fatalf("N = %d", d.N())
	}
	if math.Abs(d.Prob(0)-0.1) > 1e-12 || math.Abs(d.Prob(1)-0.2) > 1e-12 || math.Abs(d.Prob(2)-0.7) > 1e-12 {
		t.Fatalf("probs = %v %v %v", d.Prob(0), d.Prob(1), d.Prob(2))
	}
}

func TestDiscreteSampling(t *testing.T) {
	d := NewDiscrete([]float64{1, 2, 7})
	r := New(23)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("outcome %d: freq %v, want ~%v", i, got, want)
		}
	}
}

// TestDiscreteResetMatchesNew rebuilds a sampler over a longer table, then a
// shorter one: each must draw what a fresh NewDiscrete over its weights draws.
func TestDiscreteResetMatchesNew(t *testing.T) {
	d := NewDiscrete([]float64{1, 2, 7})
	for _, w := range [][]float64{{3, 0, 1, 4, 2}, {5, 1}} {
		d.Reset(w)
		fresh := NewDiscrete(w)
		if d.N() != fresh.N() {
			t.Fatalf("reset over %v: N = %d, want %d", w, d.N(), fresh.N())
		}
		a, b := New(31), New(31)
		for i := 0; i < 1000; i++ {
			if g, want := d.Sample(a), fresh.Sample(b); g != want {
				t.Fatalf("reset over %v: draw %d = %d, want %d", w, i, g, want)
			}
		}
	}
}

func TestDiscreteRejectsBadWeights(t *testing.T) {
	for _, w := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() { recover() }()
			NewDiscrete(w)
			t.Errorf("NewDiscrete(%v) did not panic", w)
		}()
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// Coarse chi-square check over 16 buckets; xoshiro should pass easily.
	r := New(29)
	const buckets = 16
	const n = 160000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(n) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 dof; 99.9th percentile ~ 37.7
	if chi2 > 37.7 {
		t.Errorf("chi2 = %v, distribution looks non-uniform", chi2)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal(0, 1)
	}
}
