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

// orientedSeq returns the contig sequence in walk orientation.
func orientedSeq(c dbg.Contig, flipped bool) []byte {
	if !flipped {
		return c.Seq
	}
	return seq.ReverseComplement(c.Seq)
}

// compact merges chains of surviving contigs that are connected through
// junctions touched by exactly two contig ends (i.e. the connection is
// unambiguous after bubble merging, hair removal and pruning). Each rank
// walks only the chains that start at contigs it owns, following the chain
// through a survivors-only junction index and fetching remote chain members
// through the cached contig reader; no rank materializes the survivor set.
// Each chain is emitted exactly once, in canonical orientation, by the rank
// owning its starting contig, and the emitted chains are redistributed into
// a fresh contig set (content-routed, deduplicated, stamped with owner-naming
// IDs).
func (g *graph) compact(r *pgas.Rank, opts Options) (*dbg.ContigSet, int) {
	j := opts.K - 1
	aliveShard := g.alive.shards[r.ID()]

	if j < 1 {
		// Degenerate k: no junctions to merge through; just keep survivors.
		var keep []dbg.Contig
		g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
			if aliveShard[i] {
				keep = append(keep, c)
			}
		})
		return dbg.DistributeContigs(r, keep, dist.Distributed), 0
	}

	// Index the junctions of the survivors only, so chain walks need no
	// liveness checks.
	sidx := buildJunctionIndex(r, g.cs, opts.K, opts.Aggregate, func(i int) bool { return aliveShard[i] })
	sreader := sidx.NewCachedReader(r, 1<<16, true)

	// simplePartner returns the unique other contig end attached to the
	// oriented contig's outgoing junction, or ok=false if the junction is
	// ambiguous or a dead end. c must be the contig identified by o.id.
	simplePartner := func(o orientedContig, c dbg.Contig) (orientedContig, dbg.Contig, bool) {
		end := byte('R')
		if o.flipped {
			end = 'L'
		}
		key, ok := junctionKey(c, opts.K, end)
		if !ok {
			return orientedContig{}, dbg.Contig{}, false
		}
		refs, _ := sreader.Get(key)
		if len(refs) != 2 {
			return orientedContig{}, dbg.Contig{}, false
		}
		var other endRef
		found := false
		for _, rf := range refs {
			if rf.ContigID != o.id {
				other = rf
				found = true
			}
		}
		if !found {
			// Both ends belong to the same contig (a self-loop); stop.
			return orientedContig{}, dbg.Contig{}, false
		}
		// Orient the partner so that its (k-1)-prefix matches our suffix.
		suffix := orientedSeq(c, o.flipped)
		suffix = suffix[len(suffix)-j:]
		oc := g.creader.Get(other.ContigID)
		for _, flipped := range []bool{false, true} {
			s := orientedSeq(oc, flipped)
			if len(s) >= j && string(s[:j]) == string(suffix) {
				return orientedContig{id: other.ContigID, flipped: flipped}, oc, true
			}
		}
		return orientedContig{}, dbg.Contig{}, false
	}

	// isChainStart reports whether no unambiguous predecessor exists for the
	// oriented contig (walking would not arrive here from a simple junction).
	isChainStart := func(o orientedContig, c dbg.Contig) bool {
		rev := orientedContig{id: o.id, flipped: !o.flipped}
		_, _, ok := simplePartner(rev, c)
		return !ok
	}

	var localOut []dbg.Contig
	mergedCount := 0
	g.cs.ForEachLocal(r, func(i int, c dbg.Contig) {
		if !aliveShard[i] {
			return
		}
		for _, flipped := range []bool{false, true} {
			start := orientedContig{id: c.ID, flipped: flipped}
			if !isChainStart(start, c) {
				continue
			}
			// Walk the chain, fetching remote members through the cache.
			cur, cc := start, c
			merged := append([]byte(nil), orientedSeq(cc, cur.flipped)...)
			depthWeight := cc.Depth * float64(len(cc.Seq))
			totalLen := len(cc.Seq)
			visited := map[int]bool{cur.id: true}
			links := 0
			for {
				next, nc, ok := simplePartner(cur, cc)
				if !ok || visited[next.id] {
					break
				}
				ns := orientedSeq(nc, next.flipped)
				merged = append(merged, ns[j:]...)
				depthWeight += nc.Depth * float64(len(nc.Seq))
				totalLen += len(nc.Seq)
				visited[next.id] = true
				links++
				cur, cc = next, nc
				r.Compute(1)
			}
			// Emit each chain once, in canonical orientation.
			rc := seq.ReverseComplement(merged)
			if string(merged) > string(rc) {
				continue
			}
			localOut = append(localOut, dbg.Contig{
				Seq:   merged,
				Depth: depthWeight / float64(totalLen),
			})
			mergedCount += links
		}
	})
	r.Barrier()

	// Redistribute the compacted chains: content-routed so the same
	// palindromic chain emitted from both ends (possibly on two different
	// ranks) collides on one owner and is deduplicated there, then stamped
	// with owner-naming IDs. No gather, no world sort.
	out := dbg.DistributeContigs(r, localOut, dist.Distributed)
	totalMerged := pgas.AllReduce(r, mergedCount, pgas.ReduceSum)
	return out, totalMerged
}
