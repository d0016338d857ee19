package core

import (
	"testing"

	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// TestWireSizes pins read localization's two wire records — the shipped pair
// and the (contig, source, count/slot) run record — against the reflective
// lower bound.
func TestWireSizes(t *testing.T) {
	rd := seq.Read{ID: "p/1", Seq: []byte("ACGTACGTAC"), Qual: []byte("IIIIIIIIII")}
	pm := pairMsg{R1: rd, R2: rd, Slot: 3}
	if got, min := pm.WireSize(), pgas.WireSizeOf(pm); got < min {
		t.Errorf("pairMsg.WireSize() = %d < encoded size %d", got, min)
	}
	run := contigRun{Contig: 1 << 40, Src: 3, N: 7}
	if got, want := run.WireSize(), pgas.WireSizeOf(run); got != want {
		t.Errorf("contigRun.WireSize() = %d, encoded size %d", got, want)
	}
}
