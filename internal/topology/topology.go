// Package topology models the hardware structure of a cache-coherent
// shared-memory machine: sockets, cores, hardware thread contexts, and the
// links between levels of the memory hierarchy.
//
// The topology is deliberately simple, reflecting the paper's assumption of
// homogeneous hardware: every core is identical, every socket is identical,
// and the inter-socket interconnect is fully connected. A Machine therefore
// needs only three numbers — sockets, cores per socket, and hardware threads
// per core — plus the resource identifiers derived from them.
package topology

import (
	"errors"
	"fmt"
	"strconv"
)

// Machine describes the shape of a homogeneous multi-socket machine.
type Machine struct {
	// Name is a human-readable model name, e.g. "X5-2 (Haswell)".
	Name string `json:"name"`
	// Sockets is the number of processor sockets. The interconnect between
	// them is assumed fully connected and symmetric.
	Sockets int `json:"sockets"`
	// CoresPerSocket is the number of physical cores on each socket.
	CoresPerSocket int `json:"coresPerSocket"`
	// ThreadsPerCore is the number of hardware thread contexts per core
	// (1 without SMT, 2 with two-way hyper-threading).
	ThreadsPerCore int `json:"threadsPerCore"`
}

// Validate reports whether the machine shape is usable.
func (m Machine) Validate() error {
	switch {
	case m.Sockets < 1:
		return fmt.Errorf("topology: machine %q has %d sockets; need at least 1", m.Name, m.Sockets)
	case m.CoresPerSocket < 1:
		return fmt.Errorf("topology: machine %q has %d cores per socket; need at least 1", m.Name, m.CoresPerSocket)
	case m.ThreadsPerCore < 1 || m.ThreadsPerCore > 8:
		return fmt.Errorf("topology: machine %q has %d threads per core; need 1..8", m.Name, m.ThreadsPerCore)
	}
	return nil
}

// TotalCores returns the number of physical cores in the machine.
func (m Machine) TotalCores() int { return m.Sockets * m.CoresPerSocket }

// TotalContexts returns the number of hardware thread contexts in the machine.
func (m Machine) TotalContexts() int { return m.TotalCores() * m.ThreadsPerCore }

// Context identifies one hardware thread context: a (socket, core, slot)
// triple. Cores are numbered within their socket and slots within their core.
type Context struct {
	Socket int `json:"socket"`
	Core   int `json:"core"`
	Slot   int `json:"slot"`
}

// String renders the context as "sS/cC/tT".
func (c Context) String() string {
	var buf [3 * 24]byte
	return string(c.Append(buf[:0]))
}

// Append appends the context's String form to b and returns the extended
// buffer, so a caller rendering many contexts fills one buffer.
func (c Context) Append(b []byte) []byte {
	b = append(b, 's')
	b = strconv.AppendInt(b, int64(c.Socket), 10)
	b = append(b, "/c"...)
	b = strconv.AppendInt(b, int64(c.Core), 10)
	b = append(b, "/t"...)
	return strconv.AppendInt(b, int64(c.Slot), 10)
}

// GlobalCore returns the machine-wide core index of the context.
func (m Machine) GlobalCore(c Context) int {
	return c.Socket*m.CoresPerSocket + c.Core
}

// ContextIndex returns a dense machine-wide index for the context, ordering
// contexts socket-major, then core, then slot.
func (m Machine) ContextIndex(c Context) int {
	return (c.Socket*m.CoresPerSocket+c.Core)*m.ThreadsPerCore + c.Slot
}

// ContextAt is the inverse of ContextIndex.
func (m Machine) ContextAt(index int) Context {
	core := index / m.ThreadsPerCore
	return Context{
		Socket: core / m.CoresPerSocket,
		Core:   core % m.CoresPerSocket,
		Slot:   index % m.ThreadsPerCore,
	}
}

// ValidContext reports whether c addresses a context present on the machine.
func (m Machine) ValidContext(c Context) bool {
	return c.Socket >= 0 && c.Socket < m.Sockets &&
		c.Core >= 0 && c.Core < m.CoresPerSocket &&
		c.Slot >= 0 && c.Slot < m.ThreadsPerCore
}

// Contexts enumerates every hardware thread context on the machine in dense
// index order.
func (m Machine) Contexts() []Context {
	out := make([]Context, 0, m.TotalContexts())
	for s := 0; s < m.Sockets; s++ {
		for c := 0; c < m.CoresPerSocket; c++ {
			for t := 0; t < m.ThreadsPerCore; t++ {
				out = append(out, Context{Socket: s, Core: c, Slot: t})
			}
		}
	}
	return out
}

// Distance classifies how far apart two contexts are in the hierarchy.
type Distance int

const (
	// SameContext means the two contexts are identical.
	SameContext Distance = iota
	// SameCore means distinct contexts sharing one physical core.
	SameCore
	// SameSocket means distinct cores on one socket.
	SameSocket
	// CrossSocket means the contexts are on different sockets.
	CrossSocket
)

// String names the distance class.
func (d Distance) String() string {
	switch d {
	case SameContext:
		return "same-context"
	case SameCore:
		return "same-core"
	case SameSocket:
		return "same-socket"
	case CrossSocket:
		return "cross-socket"
	default:
		return fmt.Sprintf("Distance(%d)", int(d))
	}
}

// DistanceBetween classifies the separation of two contexts.
func DistanceBetween(a, b Context) Distance {
	switch {
	case a == b:
		return SameContext
	case a.Socket == b.Socket && a.Core == b.Core:
		return SameCore
	case a.Socket == b.Socket:
		return SameSocket
	default:
		return CrossSocket
	}
}

// ErrHeterogeneous is returned by helpers that require a homogeneous machine
// description when given an inconsistent one.
var ErrHeterogeneous = errors.New("topology: machine must be homogeneous")

// SocketPair identifies an undirected interconnect link between two sockets
// of a fully connected interconnect. The invariant Lo < Hi is maintained by
// MakeSocketPair.
type SocketPair struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// MakeSocketPair builds the canonical (ordered) socket pair for a and b.
// It panics if a == b: there is no interconnect link from a socket to itself.
func MakeSocketPair(a, b int) SocketPair {
	if a == b {
		panic(fmt.Sprintf("topology: socket pair (%d,%d) is degenerate", a, b)) //alloccheck:ok panic path; a==b is a programming error
	}
	if a > b {
		a, b = b, a
	}
	return SocketPair{Lo: a, Hi: b}
}

// String renders the pair as "sA<->sB".
func (p SocketPair) String() string { return fmt.Sprintf("s%d<->s%d", p.Lo, p.Hi) }

// SocketPairs enumerates every interconnect link of the fully connected
// topology. A single-socket machine has none.
func (m Machine) SocketPairs() []SocketPair {
	var out []SocketPair
	for a := 0; a < m.Sockets; a++ {
		for b := a + 1; b < m.Sockets; b++ {
			out = append(out, SocketPair{Lo: a, Hi: b})
		}
	}
	return out
}

// NumSocketPairs returns the number of interconnect links of the fully
// connected topology: Sockets choose 2.
func (m Machine) NumSocketPairs() int {
	return m.Sockets * (m.Sockets - 1) / 2
}

// PairIndex returns a dense index in [0, NumSocketPairs) for the interconnect
// link between sockets a and b, consistent with the enumeration order of
// SocketPairs. It panics if a == b.
func (m Machine) PairIndex(a, b int) int {
	p := MakeSocketPair(a, b)
	// Links are enumerated grouped by their lower socket: socket 0
	// contributes Sockets-1 links, socket 1 contributes Sockets-2, and so
	// on. Offset of group lo is lo*Sockets - lo*(lo+1)/2.
	return p.Lo*m.Sockets - p.Lo*(p.Lo+1)/2 + (p.Hi - p.Lo - 1)
}
