package dbg

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// pieceContigs is the fixture of TestDealPieces: contigs shorter than k, of
// exactly k bases, of exactly one full piece, of one full piece and one more
// k-mer, long ones with an N run and a lower-case run, and enough short
// random ones that every rank at P=16 holds some.
func pieceContigs(k int) []Contig {
	rng := rand.New(rand.NewSource(21))
	bases := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return b
	}
	out := []Contig{{Seq: bases(k - 1)}, {Seq: bases(1)}, {Seq: bases(k)},
		{Seq: bases(PieceKmers + k - 1)}, {Seq: bases(PieceKmers + k)}}
	for _, n := range []int{3000, 1200} {
		s := bases(n)
		for i := 500; i < 530; i++ {
			s[i] = 'N'
		}
		for i := 700; i < 760; i++ {
			s[i] += 'a' - 'A'
		}
		out = append(out, Contig{Seq: s})
	}
	for range 60 {
		out = append(out, Contig{Seq: bases(k + rng.Intn(3*PieceKmers))})
	}
	return out
}

// TestDealPieces: at P in {1, 3, 16, 256}, every k-mer offset of every
// contig of at least k bases lies in exactly one dealt piece, and a shorter
// contig yields none. A piece holds at most PieceKmers k-mers, its bases are
// the contig's (N runs included) and its flanks are the contig's neighbours,
// 0 at the contig's ends. Rank q is dealt exactly the pieces j of each rank p
// with (p+j) mod P = q, in source-rank order, and the pieces do not depend on
// Workers.
func TestDealPieces(t *testing.T) {
	const k = 21
	contigs := pieceContigs(k)
	for _, p := range []int{1, 3, 16, 256} {
		var first [][]seq.Piece
		for _, workers := range []int{1, 4} {
			dealt := make([][]seq.Piece, p)
			shards := make([][]Contig, p)
			res := pgas.NewMachine(pgas.Config{Ranks: p, RanksPerNode: 4, Workers: workers}).Run(func(r *pgas.Rank) {
				lo, hi := r.BlockRange(len(contigs))
				cs := DistributeContigs(r, slices.Clone(contigs[lo:hi]), dist.Distributed)
				shards[r.ID()] = cs.Local(r)
				dealt[r.ID()] = DealPieces(r, cs, k)
			})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if workers == 1 {
				first = dealt
			} else if !reflect.DeepEqual(dealt, first) {
				t.Fatalf("P=%d: the pieces dealt at Workers=%d differ from Workers=1's", p, workers)
			}

			// The dealing rule, from an independent cut of each shard.
			want := make([][]seq.Piece, p)
			for src, shard := range shards {
				j := 0
				for _, c := range shard {
					for off := 0; off+k <= len(c.Seq); off += PieceKmers {
						end := min(off+PieceKmers+k-1, len(c.Seq))
						pc := seq.Piece{ContigID: c.ID, Off: int32(off), Seq: c.Seq[off:end]}
						if off > 0 {
							pc.Left = c.Seq[off-1]
						}
						if end < len(c.Seq) {
							pc.Right = c.Seq[end]
						}
						want[(src+j)%p] = append(want[(src+j)%p], pc)
						j++
					}
				}
			}
			if !reflect.DeepEqual(dealt, want) {
				t.Fatalf("P=%d Workers=%d: the ranks were not dealt piece j of rank p at rank (p+j) mod P", p, workers)
			}

			// Every k-mer in exactly one piece, checked against the contigs
			// by content.
			byID := map[int]Contig{}
			for _, shard := range shards {
				for _, c := range shard {
					byID[c.ID] = c
				}
			}
			covered := map[int][]int{}
			sawN := false
			for _, pieces := range dealt {
				for _, pc := range pieces {
					c, off := byID[pc.ContigID], int(pc.Off)
					n := len(pc.Seq) - k + 1
					if n < 1 || n > PieceKmers || string(pc.Seq) != string(c.Seq[off:off+len(pc.Seq)]) {
						t.Fatalf("P=%d: piece at %d of contig %d holds %d k-mers or other bases than the contig", p, off, pc.ContigID, n)
					}
					var left, right byte
					if off > 0 {
						left = c.Seq[off-1]
					}
					if end := off + len(pc.Seq); end < len(c.Seq) {
						right = c.Seq[end]
					}
					if pc.At(-1) != left || pc.At(len(pc.Seq)) != right {
						t.Fatalf("P=%d: piece at %d of contig %d has flanks %q %q, want %q %q", p, off, pc.ContigID, pc.Left, pc.Right, left, right)
					}
					if covered[pc.ContigID] == nil {
						covered[pc.ContigID] = make([]int, max(0, len(c.Seq)-k+1))
					}
					for i := off; i < off+n; i++ {
						covered[pc.ContigID][i]++
					}
					sawN = sawN || slices.Contains(pc.Seq, 'N')
				}
			}
			for id, c := range byID {
				if len(c.Seq) < k {
					if covered[id] != nil {
						t.Fatalf("P=%d: a %d-base contig yielded pieces at k=%d", p, len(c.Seq), k)
					}
					continue
				}
				for off, times := range covered[id] {
					if times != 1 {
						t.Fatalf("P=%d: k-mer %d of contig %d (%d bases) is in %d pieces", p, off, id, len(c.Seq), times)
					}
				}
				if len(covered[id]) != len(c.Seq)-k+1 {
					t.Fatalf("P=%d: contig %d's k-mers are in no piece", p, id)
				}
			}
			if !sawN {
				t.Fatalf("P=%d: no piece kept an N run", p)
			}
		}
	}
}
