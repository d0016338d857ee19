// Package seq provides the DNA sequence primitives used throughout the
// assembler: 2-bit base codes, packed k-mers (k <= 64), reverse complements,
// canonical forms, reads, and extension bookkeeping.
//
// A sequence's k-mers are walked one way, by CanonicalKmers, and a k-mer's
// minimizer owner rule is written once: Kmer.Minimizer is its per-key form
// and MinimizerWindow its rolling form over a read.
//
// Every higher-level module (k-mer analysis, de Bruijn graph traversal,
// alignment, local assembly, scaffolding) is built on these types, so they
// are designed to be small, allocation-free values that are safe to use as
// map keys and to send between virtual ranks.
package seq

import "fmt"

// Base codes. DNA bases are packed two bits per base.
const (
	BaseA = 0
	BaseC = 1
	BaseG = 2
	BaseT = 3
)

// baseChars maps a 2-bit base code to its ASCII character.
var baseChars = [4]byte{'A', 'C', 'G', 'T'}

// baseCodes maps an ASCII character to its 2-bit code, or 0xFF if the
// character is not one of ACGT (upper or lower case).
var baseCodes [256]byte

func init() {
	for i := range baseCodes {
		baseCodes[i] = 0xFF
	}
	baseCodes['A'], baseCodes['a'] = BaseA, BaseA
	baseCodes['C'], baseCodes['c'] = BaseC, BaseC
	baseCodes['G'], baseCodes['g'] = BaseG, BaseG
	baseCodes['T'], baseCodes['t'] = BaseT, BaseT
}

// BaseToChar returns the ASCII character for a 2-bit base code.
func BaseToChar(code byte) byte { return baseChars[code&3] }

// CharToBase returns the 2-bit code for an ASCII base character and whether
// the character was a valid unambiguous base.
func CharToBase(c byte) (byte, bool) {
	code := baseCodes[c]
	return code, code != 0xFF
}

// ComplementCode returns the 2-bit code of the complementary base.
func ComplementCode(code byte) byte { return 3 - (code & 3) }

// ComplementChar returns the complementary base character, preserving only
// upper-case output. Non-ACGT characters map to 'N'.
func ComplementChar(c byte) byte {
	code, ok := CharToBase(c)
	if !ok {
		return 'N'
	}
	return BaseToChar(ComplementCode(code))
}

// ReverseComplement returns the reverse complement of a DNA sequence given
// as ASCII bases. Non-ACGT characters become 'N'.
func ReverseComplement(s []byte) []byte {
	return AppendReverseComplement(make([]byte, 0, len(s)), s)
}

// AppendReverseComplement appends the reverse complement of an ASCII
// sequence to dst and returns the extended slice: the buffer-reusing form of
// ReverseComplement (de Bruijn traversal copies a path out through this
// when its reverse complement is the orientation kept).
func AppendReverseComplement(dst, s []byte) []byte {
	for i := len(s) - 1; i >= 0; i-- {
		dst = append(dst, ComplementChar(s[i]))
	}
	return dst
}

// GreaterThanRC reports whether s sorts strictly after its reverse
// complement as ReverseComplement spells it, byte by byte, without
// materializing the complement. It is the orientation test of every emitted
// sequence: a de Bruijn path or a compacted chain is kept in whichever
// orientation sorts first.
func GreaterThanRC(s []byte) bool {
	for i, j := 0, len(s)-1; i < len(s); i, j = i+1, j-1 {
		if c := ComplementChar(s[j]); s[i] != c {
			return s[i] > c
		}
	}
	return false
}

// Read is a single sequencing read: an identifier, a nucleotide sequence and
// an optional per-base quality string (Phred+33).
type Read struct {
	ID   string
	Seq  []byte
	Qual []byte
	// LibID identifies the paired-end library the read was sequenced from
	// (an index into the assembly configuration's library list). Reads from
	// a single-library source carry the zero value.
	LibID uint8
	// SampleID identifies the sample the read belongs to in a multi-sample
	// co-assembly (an index into the sample list the reads were simulated
	// or loaded with). Reads from a single-sample source carry the zero
	// value. The pipeline co-assembles the union of all samples' reads;
	// the tag exists so evaluation can attribute assembled sequences back
	// to the samples whose reads localized onto them.
	SampleID uint8
}

// WireSize returns the wire bytes charged when a read is shipped between
// ranks (read localization, recruitment): identifier, sequence and quality
// payloads plus two 8-byte length words of framing, which over-provision
// enough headroom to also carry the one-byte library and sample tags — so
// the charged size stays the historical 17-byte constant plus payloads and
// every golden sim-seconds value is preserved, while remaining a true upper
// bound on the reflective pgas.WireSizeOf packing (payload + 2 tag bytes).
func (r Read) WireSize() int { return 17 + len(r.ID) + len(r.Seq) + len(r.Qual) }

// Validate checks internal consistency of the read.
func (r *Read) Validate() error {
	if len(r.Seq) == 0 {
		return fmt.Errorf("seq: read %q has empty sequence", r.ID)
	}
	if len(r.Qual) != 0 && len(r.Qual) != len(r.Seq) {
		return fmt.Errorf("seq: read %q quality length %d != sequence length %d",
			r.ID, len(r.Qual), len(r.Seq))
	}
	return nil
}

// DefaultInsertSize and DefaultInsertStd are the project-wide defaults for
// paired-end library geometry. Every layer that needs a fallback insert size
// — core.DefaultConfig, scaffold.Run's zero-value guard, sim's read
// simulator, cmd/mhm's flag default — references these constants, so the
// assembler's assumption and the simulator's output cannot drift apart.
// (They previously did: scaffolding fell back to 300 while the pipeline
// default was 280.) The std is its own constant, not DefaultInsertSize/10:
// the insert/10 rule is the derivation heuristic applied when a caller
// supplies an explicit insert size without a std.
const (
	DefaultInsertSize = 280
	DefaultInsertStd  = 25
)

// Library describes one paired-end read library: its name, the read length,
// and the fragment (insert) geometry. A multi-library assembly lists its
// libraries in core.Config.Libraries, and every Read carries the index of
// the library it came from in Read.LibID; scaffolding runs one round per
// library in ascending insert-size order.
type Library struct {
	Name       string
	ReadLen    int
	InsertSize int
	InsertStd  int
}

// MeanDepthFromCounts returns the arithmetic mean of a slice of k-mer counts,
// used as the depth of a contig assembled from those k-mers.
func MeanDepthFromCounts(counts []uint32) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum float64
	for _, c := range counts {
		sum += float64(c)
	}
	return sum / float64(len(counts))
}
