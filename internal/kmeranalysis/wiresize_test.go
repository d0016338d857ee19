package kmeranalysis

import (
	"testing"

	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// TestWireSizes pins the observation wire size against the reflective lower
// bound.
func TestWireSizes(t *testing.T) {
	km, _ := seq.KmerFromBytes([]byte("ACGTTGCAAGCTTACGGATCC"), 21)
	o := Observation{Kmer: km, Left: 1, Right: 2, HasLeft: true, HasRight: true, WasRC: true}
	if min := pgas.WireSizeOf(o); observationWireSize < min {
		t.Errorf("observationWireSize = %d < encoded size %d", observationWireSize, min)
	}
}
