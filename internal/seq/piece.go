package seq

// Piece is a window of a contig cut out so that any rank can walk its k-mers:
// the bases of a run of consecutive k-mers of the contig, the ID of the contig
// and the offset of the run's first k-mer in it, and the contig base on each
// side of the window. A piece yields exactly the k-mers of its contig's run,
// and a k-mer's neighbour bases are in the piece whether or not the k-mer sits
// at the piece's edge.
type Piece struct {
	ContigID int
	// Off is the contig offset of Seq[0], the first base of the first k-mer.
	Off int32
	// Seq holds the run's k-mers and no other base.
	Seq []byte
	// Left and Right are the contig bases just before and just after Seq, or
	// 0 where the contig ends there.
	Left, Right byte
}

// At returns the base at offset i of the piece for i from -1, the left flank,
// to len(Seq), the right flank; a flank the contig does not have is 0, which
// CharToBase refuses.
func (p Piece) At(i int) byte {
	switch i {
	case -1:
		return p.Left
	case len(p.Seq):
		return p.Right
	}
	return p.Seq[i]
}

// WireSize returns the wire bytes charged when a piece is shipped between
// ranks: 16 bytes of header (the contig ID, the offset, the length and the
// two flank bases) plus the bases.
func (p Piece) WireSize() int { return 16 + len(p.Seq) }
