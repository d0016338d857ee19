package cgraph

import (
	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// orientedContig identifies a contig (by global ID) together with the
// orientation it is being read in during a chain walk.
type orientedContig struct {
	id      int
	flipped bool
}

// noLink marks a contig end with no unique partner.
var noLink = orientedContig{id: -1}

// link is one record of compaction's link exchange: contig ContigID's end
// End continues, unambiguously, into Next.
type link struct {
	ContigID int
	End      byte
	Next     orientedContig
}

// member is what a chain walk fetches of a surviving contig: the contig and
// the partners its left (next[0]) and right (next[1]) ends continue into.
type member struct {
	c    dbg.Contig
	next [2]orientedContig
}

// Wire bytes of a link record (contig, end, partner and its orientation) and
// of a fetched member beyond its contig (its two partners).
const (
	linkWireSize   = 9 + 9
	memberLinkSize = 2 * 9
)

func endIndex(end byte) int {
	if end == 'L' {
		return 0
	}
	return 1
}

// exit returns the index of the end a walk leaves a contig through: the
// right end, or the left one when the contig is read flipped.
func exit(flipped bool) int {
	if flipped {
		return 0
	}
	return 1
}

// orientedSeq returns the contig sequence in walk orientation.
func orientedSeq(c dbg.Contig, flipped bool) []byte {
	if !flipped {
		return c.Seq
	}
	return seq.ReverseComplement(c.Seq)
}

// pushLinks is compaction's link exchange. The owner of every junction
// touched by exactly two ends of distinct survivors decides locally whether
// a walk leaving through one end enters the other, that is, whether the
// walk's last (k-1)-mer is the next contig's first one in walk orientation.
// The End and Fwd bits decide it without the sequences: two left or two
// right ends need opposite Fwd bits, a left and a right end equal ones, and
// a palindromic key qualifies either way. It sends each direction of the
// link to that contig's owner, who returns its contigs' partners by shard
// index.
func (g *graph) pushLinks(r *pgas.Rank) [][2]orientedContig {
	var out []link
	g.junction.ForEachLocal(r, func(key seq.Kmer, refs []endRef) {
		if len(refs) != 2 || refs[0].ContigID == refs[1].ContigID {
			return
		}
		a, b := refs[0], refs[1]
		if key != key.ReverseComplement() && (a.End == b.End) == (a.Fwd == b.Fwd) {
			return
		}
		out = append(out,
			link{ContigID: a.ContigID, End: a.End, Next: orientedContig{id: b.ContigID, flipped: b.End == 'R'}},
			link{ContigID: b.ContigID, End: b.End, Next: orientedContig{id: a.ContigID, flipped: a.End == 'R'}})
	})
	got := exchange(r, out, func(l link) int { return ownerOf(l.ContigID) }, linkWireSize, g.aggregate)
	next := make([][2]orientedContig, g.cs.Len(r))
	for i := range next {
		next[i] = [2]orientedContig{noLink, noLink}
	}
	for _, l := range got {
		_, idx := dist.Locate(l.ContigID)
		next[idx][endIndex(l.End)] = l.Next
	}
	return next
}

// compact merges chains of surviving contigs that are connected through
// junctions touched by exactly two contig ends (i.e. the connection is
// unambiguous after bubble merging, hair removal and pruning). The junction
// owners push each survivor its links; each rank then walks only the chains
// that start at contigs it owns, where a start is an end with no link, so
// that test is local. A walk step fetches the next member, with its links,
// through a contig reader; no rank materializes the survivor set. Each chain
// is emitted exactly once, in canonical orientation, by the rank owning its
// starting contig, and the emitted chains are redistributed into a fresh
// contig set (content-routed, deduplicated, stamped with owner-naming IDs).
func (g *graph) compact(r *pgas.Rank) *dbg.ContigSet {
	j := g.k - 1
	if j < 1 {
		// Degenerate k: no junctions to merge through; just keep survivors.
		var keep []dbg.Contig
		g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
			if !g.dead[i] {
				keep = append(keep, c)
			}
		})
		return dbg.DistributeContigs(r, keep, dist.Distributed)
	}

	next := g.pushLinks(r)
	mine := make([]member, len(next))
	g.cs.ForEachLocal(r, func(i int, c dbg.Contig) { mine[i] = member{c: c, next: next[i]} })
	g.members[r.ID()] = mine
	// Publish every rank's members before any walk reads another's.
	r.Barrier()
	reader := dist.RestoreSet(g.members, func(m member) int { return m.c.WireSize() + memberLinkSize }).NewReader(r, 1<<16)

	var localOut []dbg.Contig
	for i, m := range mine {
		if g.dead[i] {
			continue
		}
		for _, flipped := range []bool{false, true} {
			if m.next[1-exit(flipped)] != noLink {
				continue // not a chain start
			}
			cur, curFlipped := m, flipped
			merged := append([]byte(nil), orientedSeq(cur.c, flipped)...)
			depthWeight := cur.c.Depth * float64(len(cur.c.Seq))
			totalLen := len(cur.c.Seq)
			visited := map[int]bool{cur.c.ID: true}
			for {
				nx := cur.next[exit(curFlipped)]
				if nx == noLink || visited[nx.id] {
					break
				}
				cur, curFlipped = reader.Get(nx.id), nx.flipped
				ns := orientedSeq(cur.c, curFlipped)
				merged = append(merged, ns[j:]...)
				depthWeight += cur.c.Depth * float64(len(cur.c.Seq))
				totalLen += len(cur.c.Seq)
				visited[nx.id] = true
				r.Compute(1)
			}
			// Emit each chain once, in canonical orientation.
			if seq.GreaterThanRC(merged) {
				continue
			}
			localOut = append(localOut, dbg.Contig{
				Seq:   merged,
				Depth: depthWeight / float64(totalLen),
			})
		}
	}

	// Redistribute the compacted chains: content-routed so the same
	// palindromic chain emitted from both ends (possibly on two different
	// ranks) collides on one owner and is deduplicated there, then stamped
	// with owner-naming IDs. No gather, no world sort.
	return dbg.DistributeContigs(r, localOut, dist.Distributed)
}
