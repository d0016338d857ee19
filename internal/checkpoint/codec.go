package checkpoint

import (
	"fmt"

	"mhmgo/internal/aligner"
	"mhmgo/internal/dbg"
	"mhmgo/internal/scaffold"
	"mhmgo/internal/seq"
)

// The field lists of the pipeline record types a checkpoint shard carries.
// Field order is part of the format; every list ends by checking the
// structural invariants of its type (quality length, k-mer length bounds,
// masked packing bits) so a corrupted shard is rejected instead of smuggling
// an impossible value into the resumed pipeline.

// ReadFields is the wire layout of a sequencing read.
func ReadFields(c *Codec, r *seq.Read) {
	c.Str(&r.ID)
	c.Blob(&r.Seq)
	c.Blob(&r.Qual)
	c.U8(&r.LibID)
	c.U8(&r.SampleID)
	c.Check(r.Validate)
}

// Read encodes a sequencing read.
func (e *Enc) Read(r seq.Read) { ReadFields(e.Codec(), &r) }

// Read decodes a sequencing read.
func (d *Dec) Read() (r seq.Read, err error) {
	ReadFields(d.Codec(), &r)
	return r, d.err
}

// ContigFields is the wire layout of a contig.
func ContigFields(c *Codec, ct *dbg.Contig) {
	c.Int(&ct.ID)
	c.Blob(&ct.Seq)
	c.F64(&ct.Depth)
	c.Check(func() error {
		if len(ct.Seq) == 0 {
			return fmt.Errorf("contig %d has empty sequence", ct.ID)
		}
		return nil
	})
}

// AlignmentFields is the wire layout of a read-to-contig alignment.
func AlignmentFields(c *Codec, a *aligner.Alignment) {
	c.Int(&a.ReadIdx)
	c.Str(&a.ReadID)
	c.U8(&a.LibID)
	c.Int(&a.ContigID)
	c.Int(&a.ContigLen)
	c.Int(&a.ContigPos)
	c.Bool(&a.Reverse)
	c.Int(&a.Matches)
	c.Int(&a.Mismatch)
	c.Int(&a.AlignLen)
}

// ScaffoldFields is the wire layout of a scaffold.
func ScaffoldFields(c *Codec, s *scaffold.Scaffold) {
	c.Int(&s.ID)
	c.Blob(&s.Seq)
	Slice(c, &s.ContigIDs, (*Codec).Int)
	c.Int(&s.Gaps)
	c.Int(&s.GapsClosed)
}

// KmerCountFields is the wire layout of one k-mer analysis record (the packed
// canonical k-mer, its count and the per-side extension observations). It
// rejects k-mers whose length is out of range or whose packing carries bits
// outside the masked region — such a value could never have been encoded.
func KmerCountFields(c *Codec, kc *seq.KmerCount) {
	c.U64(&kc.Kmer.Hi)
	c.U64(&kc.Kmer.Lo)
	c.U8(&kc.Kmer.K)
	c.U32(&kc.Count)
	for i := range kc.Left {
		c.U32(&kc.Left[i])
	}
	for i := range kc.Right {
		c.U32(&kc.Right[i])
	}
	c.Check(func() error {
		k := int(kc.Kmer.K)
		if k < 1 || k > seq.MaxK {
			return fmt.Errorf("k-mer length %d out of range [1,%d]", k, seq.MaxK)
		}
		if rt, err := seq.KmerFromBytes(kc.Kmer.AppendBases(nil), k); err != nil || rt != kc.Kmer {
			return fmt.Errorf("k-mer packing carries bits outside the k=%d mask", k)
		}
		return nil
	})
}
