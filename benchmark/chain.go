package main

import (
	"fmt"
	"time"

	"mhmgo/internal/aligner"
	"mhmgo/internal/cgraph"
	"mhmgo/internal/core"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/localasm"
	"mhmgo/internal/pgas"
	"mhmgo/internal/scaffold"
	"mhmgo/internal/seq"
)

// The layer chain is the benchmark's own SPMD body: on a fresh machine of
// the workload's shape it calls each layer's exported entry point once, for
// the first k only and with the options core builds, and samples every
// rank's simulated clock and counters around each call. It gives what the
// stage spans cannot: counters per layer, and the split of dbg and aligner
// into their phases. Its numbers describe one call of each layer at the
// first k, not the whole run.

// glueLayer marks chain steps that only connect two layers and are charged
// to neither.
const glueLayer = "glue"

// chainCall is the measurement around one layer call.
type chainCall struct {
	layer, name string
	hostS       float64          // rank 0's host time from call to closing barrier
	ranks       []pgas.CommStats // per-rank counter deltas
}

// sumStats folds the per-rank deltas; the resident peak is not a delta and is
// dropped.
func (c *chainCall) sumStats() pgas.CommStats {
	var t pgas.CommStats
	for _, s := range c.ranks {
		t.Add(s)
	}
	return t
}

func statsDelta(after, before pgas.CommStats) pgas.CommStats {
	return pgas.CommStats{
		ComputeOps:      after.ComputeOps - before.ComputeOps,
		Messages:        after.Messages - before.Messages,
		OffNodeMessages: after.OffNodeMessages - before.OffNodeMessages,
		BytesSent:       after.BytesSent - before.BytesSent,
		BytesReceived:   after.BytesReceived - before.BytesReceived,
		OffNodeBytes:    after.OffNodeBytes - before.OffNodeBytes,
		RemoteGets:      after.RemoteGets - before.RemoteGets,
		RemotePuts:      after.RemotePuts - before.RemotePuts,
		AtomicOps:       after.AtomicOps - before.AtomicOps,
		Barriers:        after.Barriers - before.Barriers,
		CacheHits:       after.CacheHits - before.CacheHits,
		CacheMisses:     after.CacheMisses - before.CacheMisses,
	}
}

// chainResult is everything the chain measured.
type chainResult struct {
	calls []*chainCall
	// Scalar outcomes of the layers (identical on every rank).
	distinctKmers, contigs               int
	seedLookups, seedCacheHits           uint64
	readsAligned, readsTotal             int
	extendedBases                        int
	acceptedLinks, gapsTotal, gapsClosed int
}

// runChain executes the chain over reads on a machine of the given shape.
func runChain(tr *tracer, parent int, ranks, ranksPerNode int, libs []seq.Library, reads []seq.Read) (*chainResult, error) {
	cfg := core.DefaultConfig(ranks)
	k := cfg.KValues()[0]
	machine := pgas.NewMachine(pgas.Config{Ranks: ranks, RanksPerNode: ranksPerNode, Workers: benchProcs})
	res := &chainResult{}
	plan := [][2]string{
		{"kmeranalysis", "run"}, {"dbg", "build"}, {"dbg", "traverse"}, {"dbg", "distribute"},
		{"cgraph", "refine"}, {"aligner", "index"}, {"aligner", "align"}, {"localasm", "run"},
		{glueLayer, "realign"}, {"scaffold", "run"},
	}
	for _, p := range plan {
		res.calls = append(res.calls, &chainCall{layer: p[0], name: p[1], ranks: make([]pgas.CommStats, ranks)})
	}
	aligned := make([]aligner.AlignStats, ranks)

	run := machine.Run(func(r *pgas.Rank) {
		step := 0
		// measure wraps one layer call: every rank samples its own clock and
		// counters, rank 0 the host clock. The closing barrier is outside the
		// counter samples and inside the host time, so the host time covers
		// every rank's share of the call.
		measure := func(fn func()) {
			c := res.calls[step]
			r.Barrier()
			var t0 time.Time
			if r.ID() == 0 {
				t0 = time.Now()
			}
			clock, stats := r.Clock(), r.Stats()
			fn()
			c.ranks[r.ID()] = statsDelta(r.Stats(), stats)
			r.Barrier()
			if r.ID() == 0 {
				t1 := time.Now()
				c.hostS = t1.Sub(t0).Seconds()
				tr.add(parent, 0, "chain:"+c.layer+"."+c.name, t0, t1, map[string]any{"layer": c.layer, "k": k, "sim_start": clock, "sim_end": r.Clock()})
			}
			step++
		}

		lo, hi := r.PairBlockRange(len(reads))
		myReads, readOffset := reads[lo:hi], lo

		var kares kmeranalysis.Result
		measure(func() {
			kopts := kmeranalysis.DefaultOptions(k)
			kopts.MinCount, kopts.UseBloom, kopts.Aggregate = cfg.MinKmerCount, cfg.UseBloom, cfg.Aggregate
			kares = kmeranalysis.Run(r, myReads, kopts, nil)
		})
		var graph *dbg.Graph
		measure(func() {
			graph = dbg.Build(r, kares.Counts, k, dbg.ThresholdOptions{TBase: cfg.TBase, ErrorRate: cfg.ErrorRate, GlobalTHQ: cfg.GlobalTHQ, MinCount: 1})
		})
		var local []dbg.Contig
		measure(func() { local = dbg.Traverse(r, graph, dbg.TraverseOptions{}) })
		var cset *dbg.ContigSet
		measure(func() { cset = dbg.DistributeContigs(r, local, dist.Distributed) })
		nContigs := cset.GlobalLen(r)
		measure(func() {
			copts := cgraph.DefaultOptions(k)
			copts.MergeBubbles, copts.RemoveHair, copts.Prune, copts.Compact = cfg.BubbleMerging, cfg.HairRemoval, cfg.Pruning, cfg.Compaction
			copts.Aggregate = cfg.Aggregate
			cset = cgraph.Refine(r, cset, copts).Set
		})
		aopts := aligner.DefaultOptions(min(k, 31))
		aopts.UseCache = cfg.SoftwareCache
		var idx *aligner.Index
		measure(func() { idx = aligner.BuildIndex(r, cset, aopts) })
		var aligns []aligner.Alignment
		measure(func() { aligns, aligned[r.ID()] = aligner.AlignReads(r, idx, myReads, readOffset, aopts) })
		var lres localasm.Result
		measure(func() {
			lopts := localasm.DefaultOptions(k)
			lopts.WorkStealing, lopts.Libraries = cfg.WorkStealing, libs
			lres = localasm.Run(r, cset, myReads, readOffset, aligns, lopts)
		})
		// Local assembly moved the contig ends, so scaffolding needs fresh
		// alignments, of the first library only when there are several (as
		// core's first round does). This pass is glue, charged to no layer.
		if len(libs) > 1 {
			first := uint8(0)
			aopts.OnlyLib = &first
		}
		measure(func() {
			idx = aligner.BuildIndex(r, cset, aopts)
			aligns, _ = aligner.AlignReads(r, idx, myReads, readOffset, aopts)
		})
		var sres scaffold.Result
		measure(func() {
			sopts := scaffold.DefaultOptions(k, libs[0].InsertSize)
			sopts.InsertStd = libs[0].InsertStd
			sopts.Aggregate, sopts.UseComponents = cfg.Aggregate, cfg.UseComponents
			sres = scaffold.Run(r, cset, myReads, readOffset, aligns, sopts)
		})
		if r.ID() == 0 {
			res.distinctKmers, res.contigs = kares.DistinctKmers, nContigs
			res.extendedBases = lres.ExtendedBases
			res.acceptedLinks, res.gapsTotal, res.gapsClosed = sres.AcceptedLinks, sres.GapsTotal, sres.GapsClosed
		}
	})
	if run.Err != nil {
		return nil, fmt.Errorf("layer chain: %w", run.Err)
	}
	for _, s := range aligned {
		res.seedLookups += s.SeedLookups
		res.seedCacheHits += s.SeedCacheHits
		res.readsAligned += s.ReadsAligned
		res.readsTotal += s.ReadsTotal
	}
	return res, nil
}

// ratio is a/b, or 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics reports the chain's per-layer numbers. Counters are exact; host
// times are not.
func (c *chainResult) metrics(m metrics) {
	type total struct {
		hostS float64
		stats pgas.CommStats
		ops   []float64 // per-rank compute ops over the layer's calls
	}
	layers := map[string]*total{}
	for _, call := range c.calls {
		if call.layer == glueLayer {
			continue
		}
		t := layers[call.layer]
		if t == nil {
			t = &total{ops: make([]float64, len(call.ranks))}
			layers[call.layer] = t
		}
		t.hostS += call.hostS
		t.stats.Add(call.sumStats())
		for i, s := range call.ranks {
			t.ops[i] += s.ComputeOps
		}
		switch call.layer + "." + call.name {
		case "dbg.build", "dbg.traverse", "dbg.distribute":
			m.timed("dbg."+call.name+"_host_s", call.hostS)
		case "aligner.index", "aligner.align":
			m.timed("aligner."+call.name+"_host_s", call.hostS)
		}
	}
	for layer, t := range layers {
		m.exact(layer+".msgs", float64(t.stats.Messages))
		m.exact(layer+".off_node_bytes", float64(t.stats.OffNodeBytes))
		m.exact(layer+".compute_ops", t.stats.ComputeOps)
		// Load imbalance of the charged compute: the share of the busiest
		// rank's work the average rank does not have, which is the time the
		// others sit in the closing barrier when compute dominates. Measured
		// on operations because the layers' own collectives level the
		// per-rank clocks before they return.
		s := sorted(t.ops)
		m.exact(layer+".imbalance", ratio(s[len(s)-1]-mean(t.ops), s[len(s)-1]))
		m.timed(layer+".host_ns_per_op", ratio(t.hostS*1e9, t.stats.ComputeOps))
	}
	m.exact("kmeranalysis.distinct_kmers", float64(c.distinctKmers))
	m.exact("dbg.remote_gets", float64(layers["dbg"].stats.RemoteGets))
	m.exact("dbg.contigs", float64(c.contigs))
	m.exact("aligner.remote_gets", float64(layers["aligner"].stats.RemoteGets))
	m.exact("aligner.cache_hit_rate", ratio(float64(c.seedCacheHits), float64(c.seedLookups)))
	m.exact("aligner.aligned_frac", ratio(float64(c.readsAligned), float64(c.readsTotal)))
	m.exact("localasm.extended_bases", float64(c.extendedBases))
	m.exact("scaffold.accepted_links", float64(c.acceptedLinks))
	m.exact("scaffold.gaps_closed_frac", ratio(float64(c.gapsClosed), float64(c.gapsTotal)))
}
