package a

// Fixture for unitflow: units seeded by //pandia:unit annotations,
// time.Duration, and the legacy suffix families must propagate through
// locals, arithmetic, calls and composite literals; definite cross-dimension
// mixing is flagged, joins that disagree fall back to unknown.

import "time"

// Sample mirrors the shape of the real counters.Sample.
type Sample struct {
	Elapsed float64 //pandia:unit seconds
	DRAM    float64 //pandia:unit bytes
	Instr   float64 //pandia:unit instructions
	Threads int
}

// Dur is a named duration type.
//
//pandia:unit seconds
type Dur float64

//pandia:unit furlongs
var odd float64 // want `bad //pandia:unit annotation: unknown unit atom "furlongs"`

//pandia:unit seconds
var stamps []float64

// Rate is an annotated method result.
//
//pandia:unit bytes/sec
func (s Sample) Rate() float64 {
	return s.DRAM / s.Elapsed
}

//pandia:unit d seconds
func take(d float64) {}

// dramRate has no annotation: its result unit is inferred from the body.
func dramRate(s Sample) float64 { return s.DRAM / s.Elapsed }

func direct(s Sample) float64 {
	return s.DRAM + s.Elapsed // want `unit mismatch: s\.DRAM \(bytes\) \+ s\.Elapsed \(seconds\)`
}

func flow(s Sample) float64 {
	x := s.DRAM
	y := s.Elapsed
	return x + y // want `unit mismatch: x \(bytes\) \+ y \(seconds\)`
}

func mulDiv(s Sample) float64 {
	bw := s.DRAM / s.Elapsed
	total := bw * s.Elapsed // back to bytes
	_ = total + s.DRAM      // ok: same dimension
	return bw + s.DRAM      // want `unit mismatch: bw \(bytes/sec\) \+ s\.DRAM \(bytes\)`
}

func compare(s Sample) bool {
	return s.DRAM > s.Elapsed // want `unit mismatch: comparing s\.DRAM \(bytes\) > s\.Elapsed \(seconds\)`
}

//pandia:unit seconds
func badReturn(s Sample) float64 {
	return s.DRAM // want `unit mismatch: returning bytes value from badReturn, declared seconds`
}

func badArg(s Sample) {
	take(s.DRAM) // want `unit mismatch: passing bytes value to parameter d \(declared seconds\) of take`
}

func badConv(s Sample) Dur {
	return Dur(s.DRAM) // want `unit mismatch: converting bytes value to Dur \(seconds\)`
}

func badSummary(s Sample) float64 {
	return dramRate(s) + s.Elapsed // want `unit mismatch: dramRate\(s\) \(bytes/sec\) \+ s\.Elapsed \(seconds\)`
}

func badMethod(s Sample) float64 {
	return s.Rate() + s.DRAM // want `unit mismatch: s\.Rate\(\) \(bytes/sec\) \+ s\.DRAM \(bytes\)`
}

func durationSeed(s Sample, d time.Duration) float64 {
	return float64(d) + s.DRAM // want `unit mismatch: float64\(d\) \(seconds\) \+ s\.DRAM \(bytes\)`
}

func suffixSeed(elapsedSecs, dramBytes float64) float64 {
	return elapsedSecs + dramBytes // want `unit mismatch: elapsedSecs \(seconds\) \+ dramBytes \(bytes\)`
}

func badLit(s Sample) Sample {
	return Sample{Elapsed: s.DRAM} // want `unit mismatch: field Elapsed \(declared seconds\) set from bytes value`
}

func badStore(s *Sample) {
	s.Elapsed = s.DRAM // want `unit mismatch: assigning bytes value to s\.Elapsed \(declared seconds\)`
}

func badRange(dramBytes float64) float64 {
	acc := dramBytes
	for _, t := range stamps {
		acc += t // want `unit mismatch: acc \(bytes\) \+= t \(seconds\)`
	}
	return acc
}

func suppressed(s Sample) float64 {
	return s.DRAM + s.Elapsed //unitflow:ok
}

// joinConflict: after the branches disagree, v is unknown — no report.
func joinConflict(s Sample, c bool) float64 {
	v := s.DRAM
	if c {
		v = s.Elapsed
	}
	return v + s.DRAM
}

// constants adapt to any unit.
func polyOK(s Sample) float64 {
	const k = 2.0
	return k*s.DRAM + 4096.0
}

// amdahl-style dimensionless math must stay silent.
func amdahl(p, n float64) float64 {
	return 1.0 / ((1 - p) + p/n)
}

// generics: propagation through a type-parameterised function must not
// crash or report.
func sum[T ~float64](xs []T) T {
	var t T
	for _, x := range xs {
		t += x
	}
	return t
}

func genericOK(s Sample) float64 {
	return sum([]float64{s.DRAM, 1.0})
}

// method values are opaque but must not crash.
func methodValue(s Sample) float64 {
	f := s.Rate
	return f()
}

// proseSuppression: a comment that only quotes the directive suppresses
// nothing.
func proseSuppression(s Sample) float64 {
	return s.DRAM + s.Elapsed // not a unitflow:ok directive // want `unit mismatch: s\.DRAM \(bytes\) \+ s\.Elapsed \(seconds\)`
}
