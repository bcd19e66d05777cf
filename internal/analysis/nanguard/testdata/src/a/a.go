package a

// Fixture for nanguard: unguarded float divisions and math.Log/math.Pow
// calls are flagged; constant denominators, path guards (enclosing ifs and
// early returns), max() floors, and //nanguard:ok suppressions pass.

import "math"

func safeDiv(a, b, fallback float64) float64 {
	if b == 0 {
		return fallback
	}
	return a / b
}

func bad(a, b float64, xs []float64) float64 {
	r := a / b // want `possibly zero denominator b`
	for _, x := range xs {
		r += 1 / x // want `possibly zero denominator x`
	}
	r += a / float64(len(xs)) // want `possibly zero denominator float64\(len\(xs\)\)`
	r += math.Log(a)          // want `math\.Log argument a is not provably positive`
	r += math.Pow(a, b)       // want `math\.Pow base a is not provably positive`
	return r
}

func badGuardInvalidated(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	b -= a
	return a / b // want `possibly zero denominator b`
}

func badWrongGuard(a, b float64) float64 {
	if b >= 0 { // >= 0 still admits zero
		return a / b // want `possibly zero denominator b`
	}
	return a / b // negative branch: b < 0 is safe
}

func good(a, b float64, xs []float64) float64 {
	r := a / 2                   // nonzero constant
	r += safeDiv(a, b, 0)        // SafeDiv-style helper
	r += a / max(b, 1e-12)       // clamped floor
	r += a / math.Max(b, 1e-12)  // clamped floor
	r += math.Pow(b, 2)          // integer exponent
	if b > 0 {
		r += a / b          // enclosing guard
		r += math.Log(b)    // positive guard covers Log
		r += math.Pow(b, a) // and Pow
	}
	if b != 0 {
		r += a / b // nonzero guard suffices for division
	}
	if len(xs) == 0 {
		return r
	}
	r += a / float64(len(xs)) // early-return guard on len
	r += a / b                //nanguard:ok caller guarantees b > 0
	return r
}

func goodEarlyReturnOr(load, cap float64) float64 {
	if cap <= 0 || load <= 0 {
		return 1
	}
	return load / cap // both operands guarded by the || early return
}

func goodDoubleInversion(s []float64, n int) float64 {
	var invSum float64
	for i := 0; i < n; i++ {
		if s[i] > 0 {
			invSum += 1 / s[i] // indexed guard matches textually
		}
	}
	if invSum == 0 {
		return 0
	}
	return 1 / invSum
}

// proseSuppression: a comment that only quotes the directive suppresses
// nothing.
func proseSuppression(a, b float64) float64 {
	return a / b // not a nanguard:ok directive // want `possibly zero denominator b`
}
