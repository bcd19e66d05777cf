package a

// Fixture for mutcheck: consumer-side writes to protected shared values are
// flagged; reads, local copies, fresh composite literals, and annotated
// builder code pass.

import (
	"placement"
	"topology"
)

func badWrites(p placement.Placement, s *placement.Shape, m *topology.Machine) {
	p[0] = placement.Context{}  // want `write to p\[0\] mutates shared read-only placement\.Placement`
	p[1].Socket = 2             // want `mutates shared read-only placement\.Placement`
	s.PerSocket[0].Ones = 3     // want `mutates shared read-only placement\.Shape`
	m.Sockets = 4               // want `mutates shared read-only topology\.Machine`
	m.Sockets++                 // want `mutates shared read-only topology\.Machine`
	(*m).CoresPerSocket = 8     // want `mutates shared read-only topology\.Machine`
	*m = topology.Machine{}     // want `mutates shared read-only topology\.Machine`
	s.PerSocket = nil           // want `mutates shared read-only placement\.Shape`
}

func goodReadsAndCopies(p placement.Placement, s placement.Shape, m topology.Machine) int {
	// Reads are fine.
	n := p[0].Socket + m.Sockets
	// Mutating a local element copy is fine: sc is a plain SocketCount.
	sc := s.PerSocket[0]
	sc.Ones = 3
	// Building a fresh value is fine.
	fresh := topology.Machine{Name: "x", Sockets: 2, CoresPerSocket: 8}
	local := placement.Placement{{Socket: 0}, {Socket: 1}}
	_ = local
	_ = fresh
	return n + sc.Ones
}

type record struct {
	Best  placement.Shape
	Place placement.Placement
}

func goodWholeValueReplacement(shapes []placement.Shape) record {
	// Replacing a whole value (variable or field of an unprotected struct)
	// is construction, not mutation of shared state.
	var rec record
	rec.Best = shapes[0]
	var out placement.Placement
	out = append(out, placement.Context{Socket: 1})
	rec.Place = out
	return rec
}

func goodAnnotatedBuilder() placement.Placement {
	p := make(placement.Placement, 2)
	p[0] = placement.Context{Socket: 0} //mutcheck:ok freshly allocated above
	p[1] = placement.Context{Socket: 1} //mutcheck:ok freshly allocated above
	return p
}

// proseSuppression: a comment that only quotes the directive suppresses
// nothing.
func proseSuppression(p placement.Placement) {
	p[0] = placement.Context{} // not a mutcheck:ok directive // want `write to p\[0\] mutates shared read-only placement\.Placement`
}
