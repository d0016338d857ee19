package main

import (
	"math"
	"path/filepath"
	"strings"
	"time"

	"mhmgo/internal/pgas"
)

// applies reports whether a per-layer metric exists on this workload; the
// ones that do not are printed as 0 so every workload prints the full set.
func (w workload) applies(name string) bool {
	switch {
	case strings.HasPrefix(name, "checkpoint."):
		return w.resume
	case strings.HasPrefix(name, "serve."):
		return w.serve
	case name == "core.sim_strong_eff":
		return w.strongRanks > 0
	}
	return true
}

// stageMetrics reports the two-clock stage totals per layer and the largest
// disagreement between the clocks: for each layer, its share of summed host
// time against its share of summed simulated time.
func stageMetrics(m metrics, layers map[string]*layerClocks) {
	var host, sim float64
	for _, l := range stageLayers {
		if layers[l] == nil {
			layers[l] = &layerClocks{}
		}
		host += layers[l].host
		sim += layers[l].sim
	}
	var skew float64
	for _, l := range stageLayers {
		m.timed(l+".host_s", layers[l].host)
		m.exact(l+".sim_s", layers[l].sim)
		skew = math.Max(skew, math.Abs(ratio(layers[l].host, host)-ratio(layers[l].sim, sim)))
	}
	m.timed("core.clock_skew_max", skew)
}

// runStats reports the whole-run communication counters and the worst rank's
// peak of resident collective payload.
func runStats(m metrics, s pgas.CommStats) {
	m.exact("pgas.msgs", float64(s.Messages))
	m.exact("pgas.off_node_msgs", float64(s.OffNodeMessages))
	m.exact("pgas.bytes_sent", float64(s.BytesSent))
	m.exact("pgas.off_node_bytes", float64(s.OffNodeBytes))
	m.exact("pgas.remote_gets", float64(s.RemoteGets))
	m.exact("pgas.atomics", float64(s.AtomicOps))
	m.exact("pgas.barriers", float64(s.Barriers))
	m.exact("pgas.cache_hit_rate", ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses)))
	m.exact("pgas.compute_ops", s.ComputeOps)
	m.exact("pgas.peak_resident_b", float64(s.PeakResidentBytes))
}

// perLayer fills the per-layer metrics of a batch workload from the traced
// operation, the layer chain and the probes, all on the pool's first input.
// base is the untraced operation run beside it; whole is a child that ran the pipeline start to end (a
// killed run returns no Result, so on the resume workload the counters come
// from the uninterrupted reference run).
func (b *batchRun) perLayer(base, traced outcome, whole childResult) error {
	m := b.rec.Metrics

	// [S] stage spans, over every process of the traced operation.
	layers := map[string]*layerClocks{}
	var simAt float64
	var allocMB, gcFrac, peakRSS float64
	process := func(part childResult, traced bool) int {
		end := part.Start.Add(time.Duration(part.WallS * float64(time.Second)))
		return b.tr.add(b.root, 0, "mhm-process", part.Start, end, map[string]any{"traced": traced, "killed": part.Killed})
	}
	for _, part := range base.parts {
		process(part, false)
	}
	for _, part := range traced.parts {
		proc := process(part, true)
		asm := b.tr.add(proc, 0, "core.Assemble", time.Unix(0, part.AssembleStartNS), time.Unix(0, part.AssembleEndNS), nil)
		stageSpans(b.tr, asm, 0, part.AssembleStartNS, simAt, part.Events, layers)
		if n := len(part.Events); n > 0 {
			simAt = part.Events[n-1].Sim
		}
		allocMB += part.AllocMB
		gcFrac += part.GCCPUFrac / float64(len(traced.parts))
		peakRSS = math.Max(peakRSS, part.PeakRSSMB)
	}
	stageMetrics(m, layers)
	runStats(m, whole.Stats)
	m.timed("host.peak_rss_mb", peakRSS)
	m.timed("host.alloc_mb", allocMB)
	m.timed("host.gc_cpu_frac", gcFrac)
	m.timed("core.trace_overhead", ratio(traced.wallS, base.wallS))
	m.exact("eval.misassemblies", float64(traced.quality.Misassemblies))

	// [C] layer chain and [P] probes, in this process.
	chainSpan := b.tr.begin(b.root, 0, "layer-chain")
	chain, err := runChain(b.tr, chainSpan, b.w.ranks, b.w.ranksPerNode, b.w.libs, b.pool[0].reads)
	b.tr.end(chainSpan)
	if err != nil {
		return err
	}
	chain.metrics(m)
	if err := runProbes(b.tr, b.root, b.w, b.rec.Seed, b.pool[0].reads, b.pool[0].files, b.dir, nil, m); err != nil {
		return err
	}

	if b.w.resume {
		bytes, steps, err := checkpointFootprint(filepath.Join(b.dir, "traced.ckpt"))
		if err != nil {
			return err
		}
		m.exact("checkpoint.bytes", float64(bytes))
		m.exact("checkpoint.steps", float64(steps))
		m.timed("checkpoint.resume_wall_s", traced.parts[1].WallS)
		// What checkpointing, the kill and the resume cost together: against
		// the same assembly run once with no checkpoints at all.
		plain, err := runChild(b.ctx, b.dir, b.job(0, "plain.fasta"))
		if err != nil {
			return err
		}
		m.timed("checkpoint.overhead_s", base.wallS-plain.WallS)
	}
	if b.w.strongRanks > 0 {
		// Strong-scaling efficiency on the simulated clock between the
		// workload's machine and a larger one, same input.
		job := b.job(0, "strong.fasta")
		job.Ranks = b.w.strongRanks
		strong, err := runChild(b.ctx, b.dir, job)
		if err != nil {
			return err
		}
		m.exact("core.sim_strong_eff", ratio(traced.simS*float64(b.w.ranks), strong.SimS*float64(job.Ranks)))
	}
	return nil
}
