package a

// Suffix families without annotations: mixing Bytes, Secs, Hz and PerSec
// identifiers across +, -, and comparisons must be flagged; same-family
// arithmetic, dimension-combining * and /, and explicit conversion helpers
// must pass. A bare PerSec is a rate of an unknown quantity: it mixes with
// bytes and hertz but adds to other rates.

type sample struct {
	DRAMBytes       float64
	ElapsedSecs     float64
	ClockHz         float64
	RatePerSec      float64
	DRAMBytesPerSec float64
	OpsPerSec       float64
}

func secsOf(bytes, perSec float64) float64 { return bytes / perSec }

func bad(s sample) {
	_ = s.DRAMBytes + s.ElapsedSecs  // want `unit mismatch: s\.DRAMBytes \(bytes\) \+ s\.ElapsedSecs \(seconds\)`
	_ = s.DRAMBytes - s.RatePerSec   // want `unit mismatch: s\.DRAMBytes \(bytes\) - s\.RatePerSec \(per-second rate\)`
	_ = s.ClockHz < s.RatePerSec     // want `unit mismatch: comparing s\.ClockHz \(hertz\) < s\.RatePerSec \(per-second rate\)`
	_ = s.ElapsedSecs == s.DRAMBytes // want `unit mismatch`

	totalBytes := s.DRAMBytes
	totalBytes += s.ElapsedSecs // want `unit mismatch`
	_ = totalBytes

	_ = float64(s.DRAMBytes) + s.ElapsedSecs // want `unit mismatch`
}

func good(s sample) {
	l1Bytes := 4096.0
	_ = s.DRAMBytes + l1Bytes                             // same family
	_ = s.DRAMBytes / s.ElapsedSecs                       // division combines dimensions
	_ = s.RatePerSec * s.ElapsedSecs                      // multiplication combines dimensions
	_ = s.DRAMBytes + 1.0                                 // bare constants are unitless
	_ = secsOf(s.DRAMBytes, s.RatePerSec) + s.ElapsedSecs // explicit conversion

	// A bare rate adds to known rates and to other bare rates.
	_ = s.RatePerSec + s.DRAMBytesPerSec
	_ = s.RatePerSec < s.OpsPerSec
	_ = 2*s.RatePerSec - s.DRAMBytes/s.ElapsedSecs

	// Suffix must start a camel-case word: "emphasis" is not a Hz value.
	emphasis := 1.0
	_ = emphasis + s.ElapsedSecs
}
