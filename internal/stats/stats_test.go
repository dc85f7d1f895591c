package stats

import (
	"math"
	"testing"
	"testing/quick"

	"musa/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almost(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); !almost(s, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) || !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty inputs should yield NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestStandardize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	z := Standardize(xs)
	if !almost(Mean(z), 0, 1e-12) {
		t.Errorf("standardized mean = %v", Mean(z))
	}
	if !almost(StdDev(z), 1, 1e-12) {
		t.Errorf("standardized sd = %v", StdDev(z))
	}
	// Constant column: centered but not scaled, no NaNs.
	z2 := Standardize([]float64{3, 3, 3})
	for _, v := range z2 {
		if v != 0 {
			t.Errorf("constant column standardized to %v", z2)
		}
	}
}

func TestCovariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct {
		ys   []float64
		want float64
	}{{[]float64{2, 4, 6, 8}, 2.5}, {[]float64{8, 6, 4, 2}, -2.5}, {[]float64{5, 5, 5, 5}, 0}} {
		if got := Covariance(xs, c.ys); !almost(got, c.want, 1e-12) {
			t.Errorf("Covariance(%v, %v) = %v, want %v", xs, c.ys, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestJacobiEigenDiagonal(t *testing.T) {
	a := [][]float64{{3, 0}, {0, 5}}
	eig, vecs := JacobiEigen(a)
	got := map[float64]bool{}
	for _, e := range eig {
		got[math.Round(e)] = true
	}
	if !got[3] || !got[5] {
		t.Errorf("eigenvalues = %v, want {3,5}", eig)
	}
	// Eigenvectors of a diagonal matrix are the standard basis.
	for c := 0; c < 2; c++ {
		norm := vecs[0][c]*vecs[0][c] + vecs[1][c]*vecs[1][c]
		if !almost(norm, 1, 1e-9) {
			t.Errorf("eigenvector %d not unit: %v", c, norm)
		}
	}
}

func TestJacobiEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := [][]float64{{2, 1}, {1, 2}}
	eig, _ := JacobiEigen(a)
	lo, hi := math.Min(eig[0], eig[1]), math.Max(eig[0], eig[1])
	if !almost(lo, 1, 1e-9) || !almost(hi, 3, 1e-9) {
		t.Errorf("eigenvalues = %v, want 1 and 3", eig)
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	// Property: A·v = λ·v for every eigenpair of a random symmetric matrix.
	r := xrand.New(31)
	const n = 6
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := r.Normal(0, 1)
			a[i][j], a[j][i] = v, v
		}
	}
	eig, vecs := JacobiEigen(a)
	for c := 0; c < n; c++ {
		for i := 0; i < n; i++ {
			var av float64
			for j := 0; j < n; j++ {
				av += a[i][j] * vecs[j][c]
			}
			if !almost(av, eig[c]*vecs[i][c], 1e-8) {
				t.Fatalf("A·v != λ·v at (%d,%d): %v vs %v", i, c, av, eig[c]*vecs[i][c])
			}
		}
	}
}

func TestJacobiEigenTraceInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		const n = 4
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
		}
		var trace float64
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := r.Normal(0, 2)
				a[i][j], a[j][i] = v, v
			}
			trace += a[i][i]
		}
		eig, _ := JacobiEigen(a)
		var sum float64
		for _, e := range eig {
			sum += e
		}
		return almost(sum, trace, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPCATwoCorrelatedVars(t *testing.T) {
	// Two perfectly correlated variables: PC0 should explain ~100% of the
	// variance and load equally on both.
	var data [][]float64
	for i := 0; i < 50; i++ {
		x := float64(i)
		data = append(data, []float64{x, 2 * x})
	}
	res, err := PCA([]string{"a", "b"}, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explained[0] < 0.999 {
		t.Errorf("PC0 explains %v, want ~1", res.Explained[0])
	}
	if !almost(math.Abs(res.Loadings[0][0]), math.Abs(res.Loadings[0][1]), 1e-9) {
		t.Errorf("loadings not symmetric: %v", res.Loadings[0])
	}
}

func TestPCAAnticorrelated(t *testing.T) {
	// x and y anticorrelated: PC0 loadings must have opposite signs.
	var data [][]float64
	r := xrand.New(37)
	for i := 0; i < 200; i++ {
		x := r.Normal(0, 1)
		data = append(data, []float64{x, -x + r.Normal(0, 0.01), r.Normal(0, 1)})
	}
	res, err := PCA([]string{"x", "y", "noise"}, data)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Loadings[0]
	if l[0]*l[1] >= 0 {
		t.Errorf("PC0 loadings for anticorrelated vars have same sign: %v", l)
	}
}

func TestPCAErrors(t *testing.T) {
	if _, err := PCA([]string{"a"}, [][]float64{{1}}); err == nil {
		t.Error("expected error for single observation")
	}
	if _, err := PCA([]string{"a", "b"}, [][]float64{{1}, {2}}); err == nil {
		t.Error("expected error for ragged rows")
	}
}

func TestPCAExplainedSumsToOne(t *testing.T) {
	r := xrand.New(41)
	var data [][]float64
	for i := 0; i < 100; i++ {
		data = append(data, []float64{r.Normal(0, 1), r.Normal(0, 3), r.Normal(5, 2)})
	}
	res, err := PCA([]string{"a", "b", "c"}, data)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range res.Explained {
		sum += e
	}
	if !almost(sum, 1, 1e-9) {
		t.Errorf("explained fractions sum to %v", sum)
	}
	for i := 1; i < len(res.Eigen); i++ {
		if res.Eigen[i] > res.Eigen[i-1]+1e-12 {
			t.Errorf("eigenvalues not sorted: %v", res.Eigen)
		}
	}
}
