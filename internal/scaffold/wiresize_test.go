package scaffold

import (
	"testing"

	"mhmgo/internal/pgas"
)

// TestWireSizes pins every routed scaffolding record's wire size against the
// reflective lower bound, so the cost accounting cannot silently drift.
func TestWireSizes(t *testing.T) {
	al := acceptedLink{Key: linkKey{C1: 1, C2: 2, End1: 'L', End2: 'R'}, Gap: 40, Sup: 3}
	if got, min := al.WireSize(), pgas.WireSizeOf(al); got < min {
		t.Errorf("acceptedLink.WireSize() = %d < encoded size %d", got, min)
	}
	ec := endpointCopy{Link: al, Which: 2}
	if got, min := ec.WireSize(), pgas.WireSizeOf(ec); got < min {
		t.Errorf("endpointCopy.WireSize() = %d < encoded size %d", got, min)
	}
	m := member{ContigID: 5, Comp: 2, Suspended: true, HMMHit: true}
	if got, min := m.WireSize(), pgas.WireSizeOf(m); got < min {
		t.Errorf("member.WireSize() = %d < encoded size %d", got, min)
	}
	s := Scaffold{ID: 1, Seq: []byte("ACGTNNNNACGT"), ContigIDs: []int{4, 9}, Gaps: 1, GapsClosed: 1}
	if got, min := s.WireSize(), pgas.WireSizeOf(s); got < min {
		t.Errorf("Scaffold.WireSize() = %d < encoded size %d", got, min)
	}
}
