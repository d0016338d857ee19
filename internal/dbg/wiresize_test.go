package dbg

import (
	"testing"

	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// TestWireSizes pins the contig and path-start claim wire sizes against the
// reflective lower bound used by the routing and gather cost accounting.
func TestWireSizes(t *testing.T) {
	c := Contig{ID: 12, Seq: []byte("ACGTTGCAAGCTTACG"), Depth: 18.5}
	if got, min := c.WireSize(), pgas.WireSizeOf(c); got < min {
		t.Errorf("Contig.WireSize() = %d < encoded size %d", got, min)
	}
	cl := newClaim(seq.MustKmer("ACGTTGCAAGCTTACGGATCC"), seq.BaseG)
	if min := pgas.WireSizeOf(cl); claimWireSize < min {
		t.Errorf("claimWireSize = %d < encoded size %d", claimWireSize, min)
	}
}
