// Package scaffold implements the MetaHipMer scaffolding stage (Algorithm 3
// and Section III of the paper): read-pair links between contigs are
// aggregated into a contig graph, the graph is partitioned into connected
// components to expose parallelism, each component is traversed with the
// paper's heuristics (longest-seed-first, extendable ends, repeat
// suspension, and the ribosomal/HMM-hit rule), and the remaining gaps are
// closed with a load-balanced per-gap phase.
//
// Since PR 3 the stage runs on distributed ownership end to end: link
// evidence lives in the link DHT as before, but the accepted links are
// copied only to the two endpoint contigs' owner ranks (which decide repeat
// suspension owner-side and veto suspended links), surviving links are
// routed only to the rank traversing their component, traversal fetches the
// contigs it touches through a cached one-sided read, and the finished
// scaffolds stay distributed until a single rank-ordered emit on rank 0.
// Component numbers stay with the contigs' owners, and each traverser learns
// only its own components' members; no rank materializes a per-contig array
// of the whole set or the full link, contig or scaffold payloads.
//
// Run performs ONE round of scaffolding for ONE paired-end library (its
// geometry in Options.InsertSize/InsertStd). Multi-library assemblies —
// HipMer/MetaHipMer inputs combine libraries of increasing insert size —
// are driven by internal/core, which calls Run once per library in
// ascending insert-size order, splicing each round's scaffolds back in as
// the next round's contigs (Options.SkipEmit / Result.Local carry the
// intermediate rounds' output between rounds without materializing it).
package scaffold

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"mhmgo/internal/aligner"
	"mhmgo/internal/cc"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/hmm"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// Options controls scaffolding.
type Options struct {
	// K is the assembly k-mer size (used for overlap detection in gap
	// closing).
	K int
	// InsertSize and InsertStd describe the paired-end library.
	InsertSize int
	InsertStd  int
	// MinLinkSupport is the number of read pairs (or splinting reads) needed
	// to accept a link between two contig ends.
	MinLinkSupport int
	// RRNAProfile, when non-nil, marks contigs matching the profile (at
	// rrnaThreshold) as HMM hits whose ends stay extendable despite competing
	// links.
	RRNAProfile *hmm.Profile
	// CloseGaps enables gap closing (otherwise gaps are filled with Ns).
	CloseGaps bool
	// Aggregate controls DHT update aggregation (for ablations).
	Aggregate bool
	// UseComponents partitions traversal by connected components (the
	// paper's parallelization); false serializes traversal on rank 0 (for
	// the ablation study).
	UseComponents bool
	// SkipEmit leaves Result.Scaffolds nil: the finished scaffolds stay
	// distributed and each rank receives its own shard in Result.Local
	// (with unassigned IDs). The multi-library round loop sets it for every
	// round but the last, because an intermediate round's scaffolds are
	// consumed as the next round's contigs (dbg.DistributeContigs assigns
	// canonical ownership and IDs) rather than materialized on rank 0.
	SkipEmit bool
}

// DefaultOptions returns scaffolding defaults for assembly k and library
// insert size.
func DefaultOptions(k, insertSize int) Options {
	return Options{
		K:              k,
		InsertSize:     insertSize,
		InsertStd:      insertSize / 10,
		MinLinkSupport: 2,
		CloseGaps:      true,
		Aggregate:      true,
		UseComponents:  true,
	}
}

// rrnaThreshold is the normalized profile score at which a contig counts as
// an rRNA hit.
const rrnaThreshold = 0.5

// longContigThreshold classifies contigs as "long"/confident traversal
// seeds: one and a half inserts.
func longContigThreshold(insertSize int) int { return 3 * insertSize / 2 }

// minGapOverlap is the minimum exact overlap between neighbouring contig
// ends for a gap to be spliced closed: k-1.
func minGapOverlap(k int) int { return k - 1 }

// Scaffold is an ordered, oriented chain of contigs with its final sequence.
type Scaffold struct {
	ID         int
	Seq        []byte
	ContigIDs  []int
	Gaps       int
	GapsClosed int
}

// Len returns the scaffold length in bases.
func (s Scaffold) Len() int { return len(s.Seq) }

// WireSize returns the wire bytes charged when a scaffold is routed or
// emitted: header words, the sequence and the member contig IDs.
func (s Scaffold) WireSize() int { return 32 + len(s.Seq) + 8*len(s.ContigIDs) }

// Result reports the outcome of scaffolding. Scaffolds is the final,
// deterministically ordered scaffold list materialized on rank 0 only (nil
// on every other rank); Local is the calling rank's own shard (always set;
// the only output when Options.SkipEmit is true); the counters are
// identical on every rank.
type Result struct {
	Scaffolds        []Scaffold
	Local            []Scaffold
	SplintLinks      int
	SpanLinks        int
	AcceptedLinks    int
	RepeatsSuspended int
	Components       int
	RRNAHits         int
	GapsTotal        int
	GapsClosed       int
}

// linkKey identifies an (unordered) pair of contig ends.
type linkKey struct {
	C1, C2     int
	End1, End2 byte
}

// linkAgg accumulates the evidence for one link.
type linkAgg struct {
	Count   int
	GapSum  int
	Splints int
}

// linkInfo is an accepted edge of the contig graph.
type linkInfo struct {
	Other    int
	MyEnd    byte
	OtherEnd byte
	Gap      int
	Support  int
}

func linkHash(k linkKey) uint64 {
	x := uint64(k.C1)*0x9e3779b97f4a7c15 ^ uint64(k.C2)*0xc2b2ae3d27d4eb4f ^ uint64(k.End1)<<8 ^ uint64(k.End2)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x
}

func normalizeKey(c1 int, e1 byte, c2 int, e2 byte) linkKey {
	if c1 < c2 || (c1 == c2 && e1 <= e2) {
		return linkKey{C1: c1, C2: c2, End1: e1, End2: e2}
	}
	return linkKey{C1: c2, C2: c1, End1: e2, End2: e1}
}

// acceptedLink is one accepted contig-graph edge as it moves between ranks.
type acceptedLink struct {
	Key linkKey
	Gap int
	Sup int
}

// WireSize returns the wire bytes of one accepted link: the two contig IDs
// and end bytes of the key plus the gap and support words.
func (acceptedLink) WireSize() int { return 34 }

// endpointCopy is an accepted link shipped to the owner of one of its
// endpoint contigs (Which selects the endpoint: 1 for C1, 2 for C2).
type endpointCopy struct {
	Link  acceptedLink
	Which byte
}

func (endpointCopy) WireSize() int { return 35 }

// member tells the rank traversing a component that a contig belongs to it,
// and whether the contig is a suspended repeat or an HMM (rRNA) hit — facts
// only the contig's owner knows.
type member struct {
	ContigID  int
	Comp      int
	Suspended bool
	HMMHit    bool
}

func (member) WireSize() int { return 18 }

// endAndDistance derives, for one aligned read of an innie pair, which end
// of the contig the rest of the fragment extends past and how far the read
// start is from that end.
func endAndDistance(a aligner.Alignment, contigLen int) (end byte, dist int) {
	if !a.Reverse {
		// The read points right: its mate lies beyond the contig's right end.
		return 'R', contigLen - a.ContigPos
	}
	return 'L', a.ContigPos + a.AlignLen
}

// Run performs scaffolding over the distributed contig set. Collective:
// every rank passes its local reads (distributed in whole pairs) and their
// alignments; the counters of the returned Result are identical on every
// rank and Result.Scaffolds is materialized on rank 0.
func Run(r *pgas.Rank, cs *dbg.ContigSet, reads []seq.Read, readOffset int, alignments []aligner.Alignment, opts Options) Result {
	if opts.InsertSize <= 0 {
		opts.InsertSize = seq.DefaultInsertSize
	}
	if opts.MinLinkSupport <= 0 {
		opts.MinLinkSupport = 2
	}

	creader := cs.NewReader(r, 1<<16)
	var res Result

	// Step 1: link generation. Pair up the local alignments by read pair and
	// store splint/span evidence in a distributed hash table keyed by the
	// contig-end pair (Global Update-Only phase). Contig lengths come from
	// the distributed set through the cached reader; with read localization
	// the aligned contig is usually owner-local.
	linkTable := dht.NewMapCollective[linkKey, linkAgg](r, linkHash, 40)
	combine := func(existing, update linkAgg, found bool) linkAgg {
		existing.Count += update.Count
		existing.GapSum += update.GapSum
		existing.Splints += update.Splints
		return existing
	}
	u := linkTable.NewUpdater(r, combine, 256, opts.Aggregate)

	alignByRead := make(map[int]aligner.Alignment, len(alignments))
	for _, a := range alignments {
		alignByRead[a.ReadIdx] = a
	}
	splintsLocal, spansLocal := 0, 0
	for _, a := range alignments {
		if a.ReadIdx%2 != 0 {
			continue // handle each pair once, from its even member
		}
		mate, ok := alignByRead[a.ReadIdx+1]
		if !ok || mate.ContigID == a.ContigID {
			continue
		}
		// The contig lengths ride along in the alignment records, so link
		// generation needs no remote contig fetches.
		end1, d1 := endAndDistance(a, a.ContigLen)
		end2, d2 := endAndDistance(mate, mate.ContigLen)
		gap := opts.InsertSize - d1 - d2
		if gap > opts.InsertSize {
			continue
		}
		agg := linkAgg{Count: 1, GapSum: gap}
		if gap <= 0 {
			agg.Splints = 1
			splintsLocal++
		} else {
			spansLocal++
		}
		u.Update(normalizeKey(a.ContigID, end1, mate.ContigID, end2), agg)
		r.Compute(2)
	}
	u.Flush()
	r.Barrier()
	// Link generation is complete; assessment only reads the table.
	linkTable.Freeze()

	// Step 2: assess links locally on their owner ranks (Local Reads &
	// Writes phase). The accepted links stay distributed.
	var localAccepted []acceptedLink
	linkTable.ForEachLocal(r, func(k linkKey, agg linkAgg) {
		if agg.Count < opts.MinLinkSupport {
			return
		}
		localAccepted = append(localAccepted, acceptedLink{Key: k, Gap: agg.GapSum / agg.Count, Sup: agg.Count})
	})
	res.SplintLinks = pgas.AllReduce(r, splintsLocal, pgas.ReduceSum)
	res.SpanLinks = pgas.AllReduce(r, spansLocal, pgas.ReduceSum)
	res.AcceptedLinks = pgas.AllReduce(r, len(localAccepted), pgas.ReduceSum)

	// Step 3: copy each accepted link to its endpoint contigs' owners (one
	// copy per endpoint), so repeat suspension can be decided owner-side
	// from purely local counts.
	var copies []endpointCopy
	for _, al := range localAccepted {
		copies = append(copies, endpointCopy{Link: al, Which: 1}, endpointCopy{Link: al, Which: 2})
	}
	ownerOfCopy := func(ec endpointCopy) int {
		id := ec.Link.Key.C1
		if ec.Which == 2 {
			id = ec.Link.Key.C2
		}
		owner, _ := dist.Locate(id)
		return owner
	}
	myCopies := dist.Exchange(r, copies, ownerOfCopy, endpointCopy.WireSize)

	// Step 4: owner-side suspension and HMM classification. Every quantity
	// needed — contig length, rRNA hit, per-end link counts — is local to
	// the owner.
	hmmHitLocal := make(map[int]bool)
	if opts.RRNAProfile != nil {
		cs.ForEachLocal(r, func(_ int, c dbg.Contig) {
			if opts.RRNAProfile.IsHit(c.Seq, rrnaThreshold) {
				hmmHitLocal[c.ID] = true
			}
			r.Compute(float64(len(c.Seq)))
		})
	}
	res.RRNAHits = pgas.AllReduce(r, len(hmmHitLocal), pgas.ReduceSum)

	type endKey struct {
		id  int
		end byte
	}
	endCount := make(map[endKey]int)
	for _, ec := range myCopies {
		k := ec.Link.Key
		if ec.Which == 1 {
			endCount[endKey{k.C1, k.End1}]++
		} else {
			endCount[endKey{k.C2, k.End2}]++
		}
	}
	r.Compute(float64(len(myCopies)))
	suspendedLocal := make(map[int]bool)
	cs.ForEachLocal(r, func(_ int, c dbg.Contig) {
		if len(c.Seq) > opts.InsertSize || hmmHitLocal[c.ID] {
			return
		}
		if endCount[endKey{c.ID, 'L'}] > 1 && endCount[endKey{c.ID, 'R'}] > 1 {
			suspendedLocal[c.ID] = true
		}
	})
	res.RepeatsSuspended = pgas.AllReduce(r, len(suspendedLocal), pgas.ReduceSum)

	// Step 5: suspended endpoints veto their links. The C1-owner's copy is
	// the link's home; the C2 owner sends a veto home when C2 is suspended.
	var vetoes []acceptedLink
	var homeLinks []acceptedLink
	for _, ec := range myCopies {
		k := ec.Link.Key
		switch ec.Which {
		case 1:
			if !suspendedLocal[k.C1] {
				homeLinks = append(homeLinks, ec.Link)
			}
		case 2:
			if suspendedLocal[k.C2] {
				vetoes = append(vetoes, ec.Link)
			}
		}
	}
	homeOf := func(al acceptedLink) int {
		owner, _ := dist.Locate(al.Key.C1)
		return owner
	}
	myVetoes := dist.Exchange(r, vetoes, homeOf, acceptedLink.WireSize)
	vetoed := make(map[linkKey]bool, len(myVetoes))
	for _, v := range myVetoes {
		vetoed[v.Key] = true
	}
	surviving := homeLinks[:0]
	for _, al := range homeLinks {
		if !vetoed[al.Key] {
			surviving = append(surviving, al)
		}
	}
	r.Compute(float64(len(homeLinks)))

	// Step 6: connected components over the surviving links, computed with
	// the parallel Shiloach-Vishkin-style algorithm from distributed edges.
	// Components are numbered in representative (smallest contig ID) order
	// and component c is traversed by rank c mod P. Each owner learns the
	// component numbers of its own contigs only; no rank holds a per-contig
	// array of the whole set.
	edges := make([]cc.Edge, 0, len(surviving))
	for _, al := range surviving {
		edges = append(edges, cc.Edge{U: al.Key.C1, V: al.Key.C2})
	}
	comp, components := cc.Parallel(r, cs.Len(r), edges)
	res.Components = components
	traverserOf := func(c int) int {
		if !opts.UseComponents {
			return 0
		}
		return c % r.NRanks()
	}

	// Step 7: route each surviving link to the rank traversing its component
	// (a link's home is its C1 owner, this rank, so the component number is
	// local), and every contig's membership — with its suspended/HMM flags —
	// to its component's traverser, so seeds and extendability follow the
	// paper's rules.
	myLinks := dist.Exchange(r, surviving,
		func(al acceptedLink) int { _, i := dist.Locate(al.Key.C1); return traverserOf(comp[i]) },
		acceptedLink.WireSize)
	members := make([]member, 0, cs.Len(r))
	cs.ForEachLocal(r, func(i int, c dbg.Contig) {
		members = append(members, member{ContigID: c.ID, Comp: comp[i], Suspended: suspendedLocal[c.ID], HMMHit: hmmHitLocal[c.ID]})
	})
	myMembers := dist.Exchange(r, members,
		func(m member) int { return traverserOf(m.Comp) },
		member.WireSize)

	adj := make(map[int][]linkInfo)
	for _, al := range myLinks {
		k := al.Key
		adj[k.C1] = append(adj[k.C1], linkInfo{Other: k.C2, MyEnd: k.End1, OtherEnd: k.End2, Gap: al.Gap, Support: al.Sup})
		adj[k.C2] = append(adj[k.C2], linkInfo{Other: k.C1, MyEnd: k.End2, OtherEnd: k.End1, Gap: al.Gap, Support: al.Sup})
	}
	suspended := make(map[int]bool)
	hmmHit := make(map[int]bool)
	for _, m := range myMembers {
		if m.Suspended {
			suspended[m.ContigID] = true
		}
		if m.HMMHit {
			hmmHit[m.ContigID] = true
		}
	}
	tr := &traverser{
		creader:   creader,
		adj:       adj,
		suspended: suspended,
		hmmHit:    hmmHit,
		opts:      opts,
	}
	// Candidate links are ordered deterministically by support, then gap,
	// then the partner contig's content — never by the rank-count-dependent
	// ID numbering, and never by the run-to-run-varying order the link
	// exchanges delivered them in. The partner contigs are fetched once per
	// distinct ID before sorting, so the charged fetch count cannot depend
	// on the comparison count.
	contentRank := make(map[int]int)
	{
		distinct := make([]int, 0, len(adj))
		seen := make(map[int]bool)
		for _, links := range adj {
			for _, l := range links {
				if !seen[l.Other] {
					seen[l.Other] = true
					distinct = append(distinct, l.Other)
				}
			}
		}
		sort.Ints(distinct)
		fetched := make(map[int]dbg.Contig, len(distinct))
		for _, id := range distinct {
			fetched[id] = tr.creader.Get(id)
		}
		sort.Slice(distinct, func(i, j int) bool {
			return dbg.ContigLess(fetched[distinct[i]], fetched[distinct[j]])
		})
		for rank, id := range distinct {
			contentRank[id] = rank
		}
	}
	for id := range adj {
		links := adj[id]
		sort.Slice(links, func(i, j int) bool {
			if links[i].Support != links[j].Support {
				return links[i].Support > links[j].Support
			}
			if links[i].Gap != links[j].Gap {
				return links[i].Gap < links[j].Gap
			}
			if links[i].Other != links[j].Other {
				return contentRank[links[i].Other] < contentRank[links[j].Other]
			}
			if links[i].MyEnd != links[j].MyEnd {
				return links[i].MyEnd < links[j].MyEnd
			}
			return links[i].OtherEnd < links[j].OtherEnd
		})
		adj[id] = links
	}

	// Step 8: traverse the components assigned to this rank in component
	// order, each given as its members in ascending ID order, fetching the
	// contigs each chain touches through the cache.
	slices.SortFunc(myMembers, func(a, b member) int {
		return cmp.Or(cmp.Compare(a.Comp, b.Comp), cmp.Compare(a.ContigID, b.ContigID))
	})
	var localChains [][]placedContig
	for lo := 0; lo < len(myMembers); {
		var ids []int
		hi := lo
		for ; hi < len(myMembers) && myMembers[hi].Comp == myMembers[lo].Comp; hi++ {
			ids = append(ids, myMembers[hi].ContigID)
		}
		localChains = append(localChains, tr.traverseComponent(r, ids)...)
		lo = hi
	}
	r.Barrier()

	// Step 9: gap closing and scaffold materialization, locally per
	// traverser; the scaffolds stay distributed.
	localScaffolds, gapsTotal, gapsClosed := buildScaffolds(r, creader, localChains, opts)
	res.GapsTotal = pgas.AllReduce(r, gapsTotal, pgas.ReduceSum)
	res.GapsClosed = pgas.AllReduce(r, gapsClosed, pgas.ReduceSum)

	// Step 10: provisional owner-naming IDs (dist.Set.Renumber), then a
	// single rank-ordered emit materializes the output on rank 0 only, where
	// it is put into the deterministic global order. Only the summary
	// counters above were all-reduced; no gather-to-all anywhere.
	// With SkipEmit the scaffolds stay exactly where traversal produced
	// them: the caller consumes each rank's Local shard (an intermediate
	// multi-library round feeds it straight into dbg.DistributeContigs,
	// which assigns canonical ownership and IDs), so neither the global
	// renumbering nor the rank-0 emit is performed or charged.
	if opts.SkipEmit {
		res.Local = localScaffolds
		r.Barrier()
		return res
	}
	// The scaffolds are already owner-placed on the rank that traversed
	// their component; stamp that rank into the provisional ID so the owner
	// function is a pure function of the item (Renumber overwrites it).
	for i := range localScaffolds {
		localScaffolds[i].ID = r.ID()
	}
	sset := dist.New(r, localScaffolds,
		func(s Scaffold) int { return s.ID },
		Scaffold.WireSize, dist.Distributed)
	sset.Renumber(r, func(i, id int) { sset.Local(r)[i].ID = id })
	res.Local = sset.Local(r)
	merged := sset.Emit(r)
	if merged != nil {
		sort.Slice(merged, func(i, j int) bool {
			if len(merged[i].Seq) != len(merged[j].Seq) {
				return len(merged[i].Seq) > len(merged[j].Seq)
			}
			return string(merged[i].Seq) < string(merged[j].Seq)
		})
		for i := range merged {
			merged[i].ID = i
		}
	}
	res.Scaffolds = merged
	r.Barrier()
	return res
}

// placedContig is one oriented contig in a scaffold chain, with the gap to
// the previous contig in the chain.
type placedContig struct {
	ContigID  int
	Flipped   bool
	GapBefore int
}

// traverser holds the per-rank state of the contig-graph traversal
// heuristics. Contigs are fetched on demand through the cached reader.
type traverser struct {
	creader   *dist.Reader[dbg.Contig]
	adj       map[int][]linkInfo
	suspended map[int]bool
	hmmHit    map[int]bool
	opts      Options
}

// traverseComponent traverses one connected component (given by contig IDs)
// and returns the chains formed.
func (t *traverser) traverseComponent(r *pgas.Rank, members []int) [][]placedContig {
	// Seeds in order of decreasing length, ties broken by content so the
	// order is independent of the rank count.
	seeds := append([]int(nil), members...)
	fetched := make(map[int]dbg.Contig, len(seeds))
	for _, id := range seeds {
		fetched[id] = t.creader.Get(id)
	}
	sort.Slice(seeds, func(i, j int) bool {
		return dbg.ContigLess(fetched[seeds[i]], fetched[seeds[j]])
	})
	used := make(map[int]bool)
	var chains [][]placedContig
	for _, id := range seeds {
		if used[id] || t.suspended[id] {
			continue
		}
		used[id] = true
		chain := []placedContig{{ContigID: id, Flipped: false}}
		// Extend to the right, then to the left (by extending the reversed
		// chain to the right and flipping it back).
		chain = t.extend(r, chain, used)
		chain = reverseChain(chain)
		chain = t.extend(r, chain, used)
		chain = reverseChain(chain)
		chains = append(chains, chain)
		r.Compute(float64(len(chain)))
	}
	return chains
}

// reverseChain flips a chain end-to-end (orientation of every contig flips
// and gaps shift to the following contig).
func reverseChain(chain []placedContig) []placedContig {
	n := len(chain)
	out := make([]placedContig, n)
	for i, pc := range chain {
		out[n-1-i] = placedContig{ContigID: pc.ContigID, Flipped: !pc.Flipped}
	}
	// Recompute GapBefore: the gap that used to precede chain[i] now follows
	// the flipped copy; shift gaps accordingly.
	for i := 1; i < n; i++ {
		out[i].GapBefore = chain[n-i].GapBefore
	}
	return out
}

// extend grows the chain from its last contig's outgoing end while an
// unambiguous, unused continuation exists.
func (t *traverser) extend(r *pgas.Rank, chain []placedContig, used map[int]bool) []placedContig {
	for {
		last := chain[len(chain)-1]
		outEnd := byte('R')
		if last.Flipped {
			outEnd = 'L'
		}
		next, ok := t.pickLink(last.ContigID, outEnd, used)
		if !ok {
			return chain
		}
		used[next.Other] = true
		// Entering through the partner's end: entering via 'L' keeps it
		// forward, entering via 'R' flips it.
		flipped := next.OtherEnd == 'R'
		chain = append(chain, placedContig{ContigID: next.Other, Flipped: flipped, GapBefore: next.Gap})
		r.Compute(1)
	}
}

// pickLink selects the link to follow from a contig end, applying the
// paper's heuristics: skip suspended repeats and used contigs, prefer links
// to long contigs and extendable ends, break ties toward the closest
// (smallest-gap) partner. HMM-hit contigs remain extendable even with
// competing links.
func (t *traverser) pickLink(contigID int, end byte, used map[int]bool) (linkInfo, bool) {
	var candidates []linkInfo
	for _, l := range t.adj[contigID] {
		if l.MyEnd != end {
			continue
		}
		if used[l.Other] || t.suspended[l.Other] {
			continue
		}
		candidates = append(candidates, l)
	}
	if len(candidates) == 0 {
		return linkInfo{}, false
	}
	if len(candidates) > 1 && !t.hmmHit[contigID] {
		// Competing links: the end is not extendable unless the competing
		// targets include a clearly better (long) contig.
		long := candidates[:0]
		for _, l := range candidates {
			if len(t.creader.Get(l.Other).Seq) >= longContigThreshold(t.opts.InsertSize) {
				long = append(long, l)
			}
		}
		if len(long) != 1 {
			return linkInfo{}, false
		}
		candidates = long
	}
	best := candidates[0]
	for _, l := range candidates[1:] {
		if l.Gap < best.Gap {
			best = l
		}
	}
	return best, true
}

// buildScaffolds materializes scaffold sequences from chains, closing gaps
// where the neighbouring contig ends overlap and filling the rest with Ns.
// Member contigs are fetched through the cached reader.
func buildScaffolds(r *pgas.Rank, creader *dist.Reader[dbg.Contig], chains [][]placedContig, opts Options) ([]Scaffold, int, int) {
	var out []Scaffold
	gapsTotal, gapsClosed := 0, 0
	for _, chain := range chains {
		var sb []byte
		var ids []int
		gaps, closed := 0, 0
		for i, pc := range chain {
			s := creader.Get(pc.ContigID).Seq
			if pc.Flipped {
				s = seq.ReverseComplement(s)
			}
			ids = append(ids, pc.ContigID)
			if i == 0 {
				sb = append(sb, s...)
				continue
			}
			gaps++
			if opts.CloseGaps {
				if joined, ok := spliceOverlap(sb, s, minGapOverlap(opts.K), opts.InsertSize); ok {
					sb = joined
					closed++
					r.Compute(float64(opts.InsertSize))
					continue
				}
			}
			gapLen := pc.GapBefore
			if gapLen < 1 {
				gapLen = 1
			}
			for g := 0; g < gapLen; g++ {
				sb = append(sb, 'N')
			}
			sb = append(sb, s...)
			r.Compute(float64(len(s)))
		}
		gapsTotal += gaps
		gapsClosed += closed
		out = append(out, Scaffold{Seq: sb, ContigIDs: ids, Gaps: gaps - closed, GapsClosed: closed})
	}
	return out, gapsTotal, gapsClosed
}

// spliceOverlap joins two sequences if the suffix of a exactly matches a
// prefix of b with length >= minOverlap (searching up to maxOverlap).
func spliceOverlap(a, b []byte, minOverlap, maxOverlap int) ([]byte, bool) {
	if maxOverlap > len(a) {
		maxOverlap = len(a)
	}
	if maxOverlap > len(b) {
		maxOverlap = len(b)
	}
	for ov := maxOverlap; ov >= minOverlap; ov-- {
		if string(a[len(a)-ov:]) == string(b[:ov]) {
			return append(a, b[ov:]...), true
		}
	}
	return nil, false
}

// Stats summarizes a scaffold set.
type Stats struct {
	Count      int
	TotalBases int
	MaxLen     int
	N50        int
}

// ComputeStats returns scaffold summary statistics.
func ComputeStats(scaffolds []Scaffold) Stats {
	var s Stats
	s.Count = len(scaffolds)
	lengths := make([]int, 0, len(scaffolds))
	for _, sc := range scaffolds {
		s.TotalBases += sc.Len()
		if sc.Len() > s.MaxLen {
			s.MaxLen = sc.Len()
		}
		lengths = append(lengths, sc.Len())
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	half := s.TotalBases / 2
	acc := 0
	for _, l := range lengths {
		acc += l
		if acc >= half {
			s.N50 = l
			break
		}
	}
	return s
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("scaffolds=%d bases=%d max=%d N50=%d", s.Count, s.TotalBases, s.MaxLen, s.N50)
}
