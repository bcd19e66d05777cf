package unitflow

import (
	"fmt"
	"strconv"
	"strings"
)

// Unit is one point of the unit lattice: a vector of exponents over the
// three base dimensions the pandia model mixes — seconds, bytes, and
// instructions — plus three distinguished states:
//
//   - unknown: no information (the lattice bottom for propagation; mixing
//     with unknown is never reported).
//   - poly: an untyped/constant value that adapts to any unit (2*x keeps
//     x's unit; x+1 is fine whatever x is).
//   - rate: a per-second rate whose numerator is unknown (a bare PerSec
//     suffix). It adds to other rates — bytes/sec, instructions/sec, other
//     bare rates — and mixes with everything else known, hertz included.
//
// Everything the paper's §3 discipline needs falls out of the exponents:
// seconds is {sec:1}, bytes/sec is {bytes:1, sec:-1}, hertz is {sec:-1},
// ratio is the known zero vector, and multiplication/division add/subtract
// exponents while addition demands equality.
type Unit struct {
	state uint8
	sec   int8
	bytes int8
	instr int8
}

const (
	stateUnknown uint8 = iota
	statePoly
	stateRate
	stateKnown
)

// Convenient constructors.
var (
	Unknown      = Unit{state: stateUnknown}
	Poly         = Unit{state: statePoly}
	Ratio        = Unit{state: stateKnown}
	Seconds      = Unit{state: stateKnown, sec: 1}
	Bytes        = Unit{state: stateKnown, bytes: 1}
	Instructions = Unit{state: stateKnown, instr: 1}
	Hertz        = Unit{state: stateKnown, sec: -1}
	BytesPerSec  = Unit{state: stateKnown, bytes: 1, sec: -1}
	InstrPerSec  = Unit{state: stateKnown, instr: 1, sec: -1}
	Rate         = Unit{state: stateRate}
)

// Known reports whether the unit carries definite dimension information.
func (u Unit) Known() bool { return u.state == stateKnown }

// IsPoly reports whether the value is a constant that adapts to any unit.
func (u Unit) IsPoly() bool { return u.state == statePoly }

// Equal reports exact equality of lattice points.
func (u Unit) Equal(v Unit) bool { return u == v }

// SameDim reports whether two known units share every exponent.
func (u Unit) SameDim(v Unit) bool {
	return u.sec == v.sec && u.bytes == v.bytes && u.instr == v.instr
}

// AddLike combines operands of +, -, and comparisons: the result unit, and
// whether the combination is free of definite dimension mixing.
func (u Unit) AddLike(v Unit) (Unit, bool) {
	if u.Mixes(v) {
		return Unknown, false // conflict: caller reports
	}
	switch {
	case u.state == stateKnown:
		return u, true // rate/poly/unknown adapts
	case v.state == stateKnown:
		return v, true
	case u.state == stateRate || v.state == stateRate:
		return Rate, true
	case u.state == statePoly && v.state == statePoly:
		return Poly, true
	default:
		return Unknown, true
	}
}

// Mixes reports whether u and v definitely have different dimensions: both
// known and unequal, or a bare rate against a known unit that is no rate.
func (u Unit) Mixes(v Unit) bool {
	switch {
	case u.state == stateKnown && v.state == stateKnown:
		return !u.SameDim(v)
	case u.state == stateRate && v.state == stateKnown:
		return !v.isRate()
	case u.state == stateKnown && v.state == stateRate:
		return !u.isRate()
	}
	return false
}

// isRate reports whether a known unit is a per-second rate of some
// quantity (bytes/sec, instructions/sec), the dimensions a bare rate may
// stand for. Hertz counts nothing per second and is no such rate.
func (u Unit) isRate() bool { return u.sec == -1 && (u.bytes != 0 || u.instr != 0) }

// Mul combines operands of *. A constant factor keeps the other operand's
// unit; a bare rate times any dimension has an unknown numerator.
func (u Unit) Mul(v Unit) Unit {
	switch {
	case v.state == statePoly:
		return u
	case u.state == statePoly:
		return v
	case u.state == stateKnown && v.state == stateKnown:
		return Unit{state: stateKnown, sec: u.sec + v.sec, bytes: u.bytes + v.bytes, instr: u.instr + v.instr}
	default:
		return Unknown
	}
}

// Inv returns the reciprocal unit.
func (u Unit) Inv() Unit {
	switch u.state {
	case stateKnown:
		return Unit{state: stateKnown, sec: -u.sec, bytes: -u.bytes, instr: -u.instr}
	case statePoly:
		return Poly
	default:
		return Unknown // includes a bare rate: sec per unknown numerator
	}
}

// Div combines operands of /.
func (u Unit) Div(v Unit) Unit { return u.Mul(v.Inv()) }

// String renders the unit for diagnostics, preferring the familiar names.
func (u Unit) String() string {
	switch u.state {
	case stateUnknown:
		return "unknown"
	case statePoly:
		return "constant"
	case stateRate:
		return "per-second rate"
	}
	switch {
	case u == Ratio:
		return "ratio"
	case u == Seconds:
		return "seconds"
	case u == Bytes:
		return "bytes"
	case u == Instructions:
		return "instructions"
	case u == Hertz:
		return "hertz"
	case u == BytesPerSec:
		return "bytes/sec"
	case u == InstrPerSec:
		return "instructions/sec"
	}
	var num, den []string
	part := func(name string, exp int8) {
		switch {
		case exp == 1:
			num = append(num, name)
		case exp > 1:
			num = append(num, fmt.Sprintf("%s^%d", name, exp))
		case exp == -1:
			den = append(den, name)
		case exp < -1:
			den = append(den, fmt.Sprintf("%s^%d", name, -exp))
		}
	}
	part("sec", u.sec)
	part("bytes", u.bytes)
	part("instr", u.instr)
	s := strings.Join(num, "*")
	if s == "" {
		s = "1"
	}
	if len(den) > 0 {
		s += "/" + strings.Join(den, "/")
	}
	return s
}

// atoms maps annotation atom spellings to base units. Scale prefixes are
// deliberately collapsed (§3: only consistency matters, not scale), so GHz
// and Hz are the same dimension, as are MB and bytes and ms and seconds.
var atoms = map[string]Unit{
	"s": Seconds, "sec": Seconds, "secs": Seconds, "second": Seconds, "seconds": Seconds,
	"ms": Seconds, "us": Seconds, "ns": Seconds, "duration": Seconds,
	"b": Bytes, "byte": Bytes, "bytes": Bytes,
	"kb": Bytes, "mb": Bytes, "gb": Bytes, "kib": Bytes, "mib": Bytes, "gib": Bytes,
	"instr": Instructions, "instrs": Instructions, "insn": Instructions,
	"instruction": Instructions, "instructions": Instructions,
	"hz": Hertz, "khz": Hertz, "mhz": Hertz, "ghz": Hertz, "hertz": Hertz,
	"ratio": Ratio, "scalar": Ratio, "dimensionless": Ratio, "fraction": Ratio,
	"factor": Ratio, "1": Ratio,
}

// ParseUnit parses the unit expression of a //pandia:unit annotation:
//
//	unit   := term { ("/" | "*") term }
//	term   := atom [ "^" int ]
//	atom   := "seconds" | "bytes" | "instructions" | "hertz" | "ratio" | ...
//
// Examples: "seconds", "bytes/sec", "instructions/sec", "bytes*bytes/sec",
// "sec^-1". Parsing is case-insensitive and scale prefixes collapse to the
// base dimension.
func ParseUnit(s string) (Unit, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return Unknown, fmt.Errorf("empty unit")
	}
	out := Ratio
	op := byte('*')
	rest := s
	for {
		i := strings.IndexAny(rest, "*/")
		tok := rest
		if i >= 0 {
			tok = rest[:i]
		}
		if tok == "" {
			return Unknown, fmt.Errorf("malformed unit %q", s)
		}
		u, err := parseTerm(tok)
		if err != nil {
			return Unknown, err
		}
		out = apply(out, op, u)
		if i < 0 {
			return out, nil
		}
		op = rest[i]
		rest = rest[i+1:]
	}
}

func apply(acc Unit, op byte, u Unit) Unit {
	if op == '/' {
		return acc.Div(u)
	}
	return acc.Mul(u)
}

func parseTerm(tok string) (Unit, error) {
	tok = strings.TrimSpace(tok)
	exp := 1
	if i := strings.IndexByte(tok, '^'); i >= 0 {
		e, err := strconv.Atoi(tok[i+1:])
		if err != nil {
			return Unknown, fmt.Errorf("bad exponent in %q", tok)
		}
		exp = e
		tok = tok[:i]
	}
	base, ok := atoms[tok]
	if !ok {
		return Unknown, fmt.Errorf("unknown unit atom %q", tok)
	}
	out := Ratio
	for n := exp; n > 0; n-- {
		out = out.Mul(base)
	}
	for n := exp; n < 0; n++ {
		out = out.Div(base)
	}
	return out, nil
}
