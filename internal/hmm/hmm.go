// Package hmm provides a lightweight profile model used to recognize
// conserved ribosomal (rRNA-like) regions in contigs, standing in for the
// HMMER pipeline the paper integrates. The scaffolder uses the hit/no-hit
// decision to designate contig ends as extendable and to seed aggressive
// traversal of conserved regions (Section III-C).
//
// The model is an ungapped position-weight profile built from one or more
// example marker sequences: each position stores per-base log-odds against a
// uniform background. A contig is a hit if any window on either strand
// scores above a normalized threshold.
package hmm

import (
	"math"

	"mhmgo/internal/seq"
)

// Profile is a position-weight model of a conserved region.
type Profile struct {
	// logOdds[i][b] is the log-odds score of base b at profile position i.
	logOdds [][4]float64
	// matchLogOdds/mismatchLogOdds are the scores used when building from a
	// single consensus sequence with an assumed per-base conservation.
	length int
}

// BuildProfile constructs a profile from example sequences of identical
// length (typically the planted marker or a set of observed rRNA copies).
// conservation is the assumed per-position probability of the consensus base
// (e.g. 0.9); it controls the scores when only one example is given.
func BuildProfile(examples [][]byte, conservation float64) *Profile {
	if len(examples) == 0 || len(examples[0]) == 0 {
		return &Profile{}
	}
	if conservation <= 0.25 || conservation >= 1 {
		conservation = 0.9
	}
	length := len(examples[0])
	counts := make([][4]float64, length)
	for _, ex := range examples {
		for i := 0; i < length && i < len(ex); i++ {
			code, ok := seq.CharToBase(ex[i])
			if !ok {
				continue
			}
			counts[i][code]++
		}
	}
	p := &Profile{length: length, logOdds: make([][4]float64, length)}
	background := 0.25
	for i := 0; i < length; i++ {
		total := counts[i][0] + counts[i][1] + counts[i][2] + counts[i][3]
		for b := 0; b < 4; b++ {
			var prob float64
			if total == 0 {
				prob = background
			} else {
				// Blend the observed frequency with the conservation prior.
				freq := counts[i][b] / total
				prob = conservation*freq + (1-conservation)*background
			}
			if prob < 1e-4 {
				prob = 1e-4
			}
			p.logOdds[i][b] = math.Log(prob / background)
		}
	}
	return p
}

// Fingerprint returns a content hash of the profile (FNV-1a over the length
// and the bit patterns of every position weight). A nil or empty profile
// hashes to 0. Checkpoint provenance uses it to detect a changed scaffolding
// profile between a checkpointed run and a resume attempt.
func (p *Profile) Fingerprint() uint64 {
	if p == nil || p.length == 0 {
		return 0
	}
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 64; i += 8 {
			h ^= (x >> i) & 0xff
			h *= prime
		}
	}
	mix(uint64(p.length))
	for _, pos := range p.logOdds {
		for _, v := range pos {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// maxScore returns the best possible score of the profile.
func (p *Profile) maxScore() float64 {
	var s float64
	for i := 0; i < p.length; i++ {
		best := p.logOdds[i][0]
		for b := 1; b < 4; b++ {
			if p.logOdds[i][b] > best {
				best = p.logOdds[i][b]
			}
		}
		s += best
	}
	return s
}

// scoreWindow scores the profile against s starting at offset.
func (p *Profile) scoreWindow(s []byte, offset int) float64 {
	var score float64
	for i := 0; i < p.length; i++ {
		j := offset + i
		if j >= len(s) {
			break
		}
		code, ok := seq.CharToBase(s[j])
		if !ok {
			continue
		}
		score += p.logOdds[i][code]
	}
	return score
}

// Hit describes the best match of the profile within a sequence.
type Hit struct {
	// Score is the best window score normalized by the profile's maximum
	// score (1.0 = perfect match).
	Score float64
	// Pos is the start offset of the best window on the reported strand.
	Pos int
	// Reverse reports whether the hit is on the reverse complement strand.
	Reverse bool
}

// hitThreshold is the normalized score at which a sequence contains the
// profiled region.
const hitThreshold = 0.5

// Scan slides the profile over both strands of s, one base at a time, and
// returns the best hit found.
func (p *Profile) Scan(s []byte) Hit {
	if p.length == 0 || len(s) == 0 {
		return Hit{}
	}
	maxScore := p.maxScore()
	if maxScore <= 0 {
		return Hit{}
	}
	best := Hit{Score: math.Inf(-1)}
	scan := func(target []byte, reverse bool) {
		last := len(target) - p.length
		if last < 0 {
			last = 0
		}
		for off := 0; off <= last; off++ {
			sc := p.scoreWindow(target, off) / maxScore
			if sc > best.Score {
				best = Hit{Score: sc, Pos: off, Reverse: reverse}
			}
		}
	}
	scan(s, false)
	scan(seq.ReverseComplement(s), true)
	if math.IsInf(best.Score, -1) {
		return Hit{}
	}
	return best
}

// IsHit reports whether s contains the profiled region: whether its best
// window scores at least hitThreshold.
func (p *Profile) IsHit(s []byte) bool {
	return p.Scan(s).Score >= hitThreshold
}

// CountHits returns how many of the sequences contain the profiled region.
func (p *Profile) CountHits(seqs [][]byte) int {
	n := 0
	for _, s := range seqs {
		if p.IsHit(s) {
			n++
		}
	}
	return n
}
