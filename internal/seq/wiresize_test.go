package seq

import (
	"testing"

	"mhmgo/internal/pgas"
)

// TestReadWireSize pins the read-shipping wire size against the reflective
// lower bound: the charged 17-byte framing constant must stay a true upper
// bound on the packed encoding even with both one-byte tags set, so widening
// the record with SampleID could not silently change any golden sim-seconds.
func TestReadWireSize(t *testing.T) {
	rd := Read{ID: "pair/1", Seq: []byte("ACGTACGTAC"), Qual: []byte("IIIIIIIIII")}
	if got, min := rd.WireSize(), pgas.WireSizeOf(rd); got < min {
		t.Errorf("Read.WireSize() = %d < encoded size %d", got, min)
	}
	tagged := Read{ID: "pair/2", Seq: []byte("ACGTACGTAC"), Qual: []byte("IIIIIIIIII"), LibID: 255, SampleID: 255}
	if got, min := tagged.WireSize(), pgas.WireSizeOf(tagged); got < min {
		t.Errorf("tagged Read.WireSize() = %d < encoded size %d", got, min)
	}
	if rd.WireSize() != tagged.WireSize() {
		t.Errorf("tags changed the charged wire size: %d vs %d; golden sim-seconds depend on it being tag-independent",
			rd.WireSize(), tagged.WireSize())
	}
}

// TestPieceWireSize: the charged 16-byte piece header stays an upper bound on
// the packed encoding.
func TestPieceWireSize(t *testing.T) {
	pc := Piece{ContigID: 1 << 40, Off: 1 << 20, Seq: []byte("ACGTACGTACGTACGTACGTA"), Left: 'G', Right: 'T'}
	if got, min := pc.WireSize(), pgas.WireSizeOf(pc); got < min {
		t.Errorf("Piece.WireSize() = %d < encoded size %d", got, min)
	}
}
