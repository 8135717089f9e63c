package stats

import (
	"math"
	"math/rand"
	"testing"
)

// Reference CDF values computed with scipy.stats.chi2.cdf.
func TestChiSquareCDFKnownValues(t *testing.T) {
	cases := []struct {
		k, x, want float64
	}{
		{1, 1, 0.6826894921370859},    // P(|Z| ≤ 1) for Z ~ N(0,1)
		{2, 2, 0.6321205588285577},    // 1 − e^{-1}
		{2, 13.8, 0.9989920054748447}, // χ²(2) 99.9% point
		{3, 11.344867, 0.99},          // χ²(3) 99% point
		{10, 10, 0.5595067149347875},
		{100, 124.3421134, 0.95}, // χ²(100) 95% point
	}
	for _, c := range cases {
		got := ChiSquareCDF(c.k, c.x)
		if math.Abs(got-c.want) > 1e-5 {
			t.Errorf("ChiSquareCDF(%g, %g) = %.10f, want %.10f", c.k, c.x, got, c.want)
		}
	}
	if got := ChiSquareCDF(3, -1); got != 0 {
		t.Errorf("CDF at negative x = %v, want 0", got)
	}
	if got := ChiSquareCDF(3, 0); got != 0 {
		t.Errorf("CDF at 0 = %v, want 0", got)
	}
}

func TestChiSquareCDFMonotoneAndBounded(t *testing.T) {
	for _, k := range []float64{1, 2, 3, 7, 50, 500} {
		prev := -1.0
		for x := 0.0; x < 4*k+40; x += k/10 + 0.1 {
			v := ChiSquareCDF(k, x)
			if v < prev-1e-12 {
				t.Fatalf("CDF(k=%g) not monotone at x=%g: %v < %v", k, x, v, prev)
			}
			if v < 0 || v > 1 {
				t.Fatalf("CDF(k=%g, x=%g) = %v outside [0,1]", k, x, v)
			}
			prev = v
		}
	}
}

func TestChiSquareQuantileInvertsCDF(t *testing.T) {
	for _, k := range []float64{1, 2, 3, 6, 20, 200} {
		for _, p := range []float64{0.005, 0.05, 0.5, 0.95, 0.995, 0.999} {
			x := ChiSquareQuantile(k, p)
			if got := ChiSquareCDF(k, x); math.Abs(got-p) > 1e-9 {
				t.Errorf("CDF(Quantile(k=%g, p=%g)) = %v", k, p, got)
			}
		}
	}
}

func TestChiSquareQuantileRejectsBadP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("quantile accepted p=%v", p)
				}
			}()
			ChiSquareQuantile(3, p)
		}()
	}
}

// TestMeanChiSquareBoundsCoverage draws batches of chi-square samples
// and checks the acceptance interval's empirical coverage is near the
// nominal confidence — the property the NEES/NIS harness stands on.
func TestMeanChiSquareBoundsCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k = 3  // NEES dimension
	const n = 25 // Monte-Carlo batch size
	const trials = 2000
	lo, hi := MeanChiSquareBounds(k, n, 0.95)
	if lo >= k || hi <= k {
		t.Fatalf("interval [%v, %v] does not straddle the mean %v", lo, hi, float64(k))
	}
	inside := 0
	for tr := 0; tr < trials; tr++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			// χ²(3) = sum of three squared normals.
			for j := 0; j < k; j++ {
				z := rng.NormFloat64()
				sum += z * z
			}
		}
		m := sum / n
		if m >= lo && m <= hi {
			inside++
		}
	}
	cov := float64(inside) / trials
	if cov < 0.93 || cov > 0.97 {
		t.Errorf("empirical coverage %.3f for nominal 0.95", cov)
	}
}

func TestMeanChiSquareBoundsTightenWithN(t *testing.T) {
	lo1, hi1 := MeanChiSquareBounds(2, 10, 0.99)
	lo2, hi2 := MeanChiSquareBounds(2, 1000, 0.99)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("bounds did not tighten: n=10 width %v, n=1000 width %v", hi1-lo1, hi2-lo2)
	}
}
