package cgraph

import (
	"testing"

	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// TestWireSizes pins the wire size of every record refinement moves against
// the reflective lower bound.
func TestWireSizes(t *testing.T) {
	key := seq.MustKmer("ACGT")
	ref := endRef{ContigID: 1 << 40, End: 'L', Len: 1 << 20, Depth: 3.5, Fwd: true}
	next := orientedContig{id: 1 << 40, flipped: true}
	for _, tc := range []struct {
		name string
		size int
		v    any
	}{
		{"endRef", refWireSize, ref},
		{"junction update", entryWireSize, struct {
			K seq.Kmer
			R endRef
		}{key, ref}},
		{"view", viewWireSize, view{ContigID: 1 << 40, End: 'R', Nb: ref}},
		{"tombstone", tombstoneWireSize, tombstone{Key: key, ContigID: 1 << 40}},
		{"link", linkWireSize, link{ContigID: 1 << 40, End: 'R', Next: next}},
		{"member links", memberLinkSize, [2]orientedContig{next, next}},
	} {
		if min := pgas.WireSizeOf(tc.v); tc.size < min {
			t.Errorf("%s wire size = %d < encoded size %d", tc.name, tc.size, min)
		}
	}
}
