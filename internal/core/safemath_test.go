package core

import (
	"math"
	"testing"
)

func TestSafeDiv(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		name           string
		num, den, fall float64
		want           float64
	}{
		{"plain", 6, 3, -1, 2},
		{"negative", -6, 3, -1, -2},
		{"zero numerator", 0, 5, -1, 0},
		{"zero denominator", 1, 0, -1, -1},
		{"zero over zero", 0, 0, -1, -1},
		{"nan numerator", nan, 2, -1, -1},
		{"nan denominator", 2, nan, -1, -1},
		{"inf numerator", inf, 2, -1, -1},
		{"neg inf numerator", -inf, 2, -1, -1},
		{"inf denominator", 2, inf, -1, 0},
		{"inf over inf", inf, inf, -1, -1},
		{"tiny denominator stays finite", 1, 0x1p-300, -1, 0x1p300},
		{"subnormal denominator overflows", 1, math.SmallestNonzeroFloat64, -1, -1},
		{"overflowing quotient", math.MaxFloat64, 0.5, -1, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := SafeDiv(tc.num, tc.den, tc.fall)
			if math.IsNaN(tc.want) != math.IsNaN(got) || (!math.IsNaN(tc.want) && got != tc.want) {
				t.Fatalf("SafeDiv(%g, %g, %g) = %g, want %g", tc.num, tc.den, tc.fall, got, tc.want)
			}
		})
	}
}

func TestSafeLog(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		name    string
		x, fall float64
		want    float64
	}{
		{"e", math.E, -1, 1},
		{"one", 1, -1, 0},
		{"zero", 0, -1, -1},
		{"negative", -2, -1, -1},
		{"nan", nan, -1, -1},
		{"pos inf", inf, -1, -1},
		{"neg inf", -inf, -1, -1},
		{"subnormal", math.SmallestNonzeroFloat64, -1, math.Log(math.SmallestNonzeroFloat64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := SafeLog(tc.x, tc.fall)
			if got != tc.want {
				t.Fatalf("SafeLog(%g, %g) = %g, want %g", tc.x, tc.fall, got, tc.want)
			}
		})
	}
}

func TestClamp(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		name      string
		x, lo, hi float64
		want      float64
	}{
		{"inside", 0.5, 0, 1, 0.5},
		{"below", -2, 0, 1, 0},
		{"above", 7, 0, 1, 1},
		{"at lo", 0, 0, 1, 0},
		{"at hi", 1, 0, 1, 1},
		{"nan to lo", nan, 0, 1, 0},
		{"pos inf to hi", inf, 0, 1, 1},
		{"neg inf to lo", -inf, 0, 1, 0},
		{"negative range", -0.5, -1, -0.25, -0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Clamp(tc.x, tc.lo, tc.hi)
			if got != tc.want {
				t.Fatalf("Clamp(%g, %g, %g) = %g, want %g", tc.x, tc.lo, tc.hi, got, tc.want)
			}
		})
	}
}

// TestSafeDivNeverNaN property-checks the helper over a grid of special
// values: the result must never be NaN or ±Inf unless the fallback is.
func TestSafeDivNeverNaN(t *testing.T) {
	specials := []float64{0, 1, -1, 0.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, a := range specials {
		for _, b := range specials {
			got := SafeDiv(a, b, 0)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("SafeDiv(%g, %g, 0) = %g leaked a non-finite value", a, b, got)
			}
		}
	}
}
