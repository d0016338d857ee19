package dbg

import (
	"testing"

	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// TestWireSizes pins the contig, path-start claim, pointer-doubling and
// assembly record wire sizes against the reflective lower bound used by the
// routing and gather cost accounting.
func TestWireSizes(t *testing.T) {
	c := Contig{ID: 12, Seq: []byte("ACGTTGCAAGCTTACG"), Depth: 18.5}
	if got, min := c.WireSize(), pgas.WireSizeOf(c); got < min {
		t.Errorf("Contig.WireSize() = %d < encoded size %d", got, min)
	}
	for _, w := range []struct {
		name string
		size int
		v    any
	}{
		{"claimWireSize", claimWireSize, newClaim(seq.MustKmer("ACGTTGCAAGCTTACGGATCC"), seq.BaseG, 7)},
		{"jumpWireSize", jumpWireSize, jump{to: 3, node: node{ptr: 5, dist: 2}}},
		{"pieceWireSize", pieceWireSize, piece{to: 3, dist: 2, count: 9, base: seq.BaseT}},
	} {
		if min := pgas.WireSizeOf(w.v); w.size < min {
			t.Errorf("%s = %d < encoded size %d", w.name, w.size, min)
		}
	}
}
