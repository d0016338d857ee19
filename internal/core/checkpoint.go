package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mhmgo/internal/aligner"
	"mhmgo/internal/checkpoint"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/pgas"
	"mhmgo/internal/scaffold"
	"mhmgo/internal/seq"
)

// ErrFaultInjected is returned by Assemble when an injected fault
// (Config.FailAfterStage or Config.FailAtBarrier) killed the run. The
// checkpoints written before the kill are durable; a subsequent run with
// ResumeFrom pointed at the checkpoint directory continues from the last
// completed stage.
var ErrFaultInjected = errors.New("core: injected fault")

// configHash returns the hex SHA-256 of a canonical encoding of every
// configuration field that influences pipeline output or simulated timing.
// The checkpoint/fault-injection knobs (CheckpointDir, ResumeFrom,
// FailAfterStage, FailAtIteration, FailAtBarrier) are deliberately excluded:
// a run resumed with the fault cleared must still hash-match the killed run
// it is continuing. Ranks is also excluded — the rank count is validated
// separately so a wrong P yields its own distinct error. cfg must already be
// withDefaults()-normalized.
func configHash(cfg Config, ks []int) string {
	var e checkpoint.Enc
	e.Str("mhm-config-v1")
	e.Int(cfg.RanksPerNode)
	cost := cfg.Cost
	if !cfg.CostSet && cost == (pgas.CostModel{}) {
		// Hash the effective model, so an explicit DefaultCostModel and the
		// zero-value default produce the same identity.
		cost = pgas.DefaultCostModel()
	}
	e.F64(cost.ComputePerOp)
	e.F64(cost.LatencyOnNode)
	e.F64(cost.LatencyOffNode)
	e.F64(cost.ByteOnNode)
	e.F64(cost.ByteOffNode)
	e.F64(cost.AtomicCost)
	e.F64(cost.BarrierCost)
	e.Int(cfg.KMin)
	e.Int(cfg.KMax)
	e.Int(cfg.KStep)
	e.Int(len(ks))
	for _, k := range ks {
		e.Int(k)
	}
	e.U32(cfg.MinKmerCount)
	e.Bool(cfg.UseBloom)
	e.U32(cfg.TBase)
	e.F64(cfg.ErrorRate)
	e.U32(cfg.GlobalTHQ)
	e.Int(len(cfg.Libraries))
	for _, lib := range cfg.Libraries {
		e.Str(lib.Name)
		e.Int(lib.ReadLen)
		e.Int(lib.InsertSize)
		e.Int(lib.InsertStd)
	}
	e.Bool(cfg.Aggregate)
	e.Bool(cfg.SoftwareCache)
	e.Bool(cfg.ReadLocalization)
	e.Bool(cfg.WorkStealing)
	e.Bool(cfg.UseComponents)
	e.Bool(false) // reserved: a retired field's byte, kept so older checkpoints still match
	e.Bool(cfg.BubbleMerging)
	e.Bool(cfg.HairRemoval)
	e.Bool(cfg.Pruning)
	e.Bool(cfg.Compaction)
	e.Bool(cfg.LocalAssembly)
	e.Bool(cfg.Scaffolding)
	e.U64(cfg.RRNAProfile.Fingerprint())
	e.Int(cfg.MinContigLen)
	return checkpoint.HashBytes(e.Bytes())
}

// ConfigHash returns the hex SHA-256 content hash of a configuration after
// default-normalization: the same identity the checkpoint manifest binds, so
// two Config values hash equal exactly when they run the identical pipeline.
// Execution knobs (Ranks via separate validation, Workers, checkpoint and
// fault-injection fields, the Progress hook) are excluded. The serving layer
// uses it to prove that a job spec decodes to the configuration it claims.
func ConfigHash(cfg Config) string {
	cfg = cfg.withDefaults()
	return configHash(cfg, cfg.KValues())
}

// inputHash returns the hex SHA-256 over the full input read set in its
// shard encoding, whose length framing keeps field boundaries from aliasing.
// The hash covers the per-read library AND sample tags: two read sets that
// differ only in which sample their reads belong to are different co-assembly
// inputs, and a checkpoint written before the sample axis existed fails the
// manifest's input check (ErrInputMismatch) instead of resuming with
// mis-attributed reads.
func inputHash(reads []seq.Read) string {
	return checkpoint.HashSlice(reads, checkpoint.ReadFields)
}

// rankState is a rank's carried pipeline state — the one representation the
// stage bodies mutate, the checkpoint shards serialize and a resume restores
// whole. At a stage boundary it is everything runPipeline needs to re-enter
// the schedule at the next step with bit-identical behavior, including the
// simulated clock and resident-bytes meter (identical across ranks at a
// boundary thanks to the stage-end barrier, and required for the sim-seconds
// equality guarantee).
type rankState struct {
	// Boundary header, stamped by atBoundary: a checkpoint step is
	// identified by (iteration, stage index), totally ordered
	// lexicographically.
	ranks, rank int
	it, stage   int
	clock       float64
	resident    uint64

	// reads is the rank's current (possibly localized) read set;
	// shippedReadBytes the resident bytes charged for it, released when the
	// next localization round replaces it.
	reads            []seq.Read
	readOffset       int
	shippedReadBytes int

	distinctKmers  int
	heavyHitterMax int64
	alignedFrac    float64
	localAsmBases  int
	cacheHitRate   float64

	// aligns is the latest alignment stage's output, serialized only at
	// boundaries where a later step still consumes it (hasAligns; see
	// stage.alignsLive).
	hasAligns bool
	aligns    []aligner.Alignment

	// cset is the live distributed contig set and kmers the live k-mer counts
	// table (live only between k-mer analysis and graph construction). Both
	// are machine-wide structures, so a shard carries this rank's part —
	// contigs, and counts sorted by k-mer for a deterministic byte stream
	// (the table's iteration order is not) — and loadResume reassembles them.
	cset       *dbg.ContigSet
	kmers      *dht.Map[seq.Kmer, seq.KmerCount]
	hasContigs bool
	contigs    []dbg.Contig
	hasCounts  bool
	counts     []seq.KmerCount

	// Scaffolding output, present once the scaffolding stage ran.
	// scaffold.Scaffolds is non-empty on rank 0 only (the emitted final
	// list); scaffold.Local is the rank's own shard.
	hasScaffold bool
	scaffold    scaffold.Result
	rounds      []RoundStats

	// emitted is the final contig list (rank 0 only); not part of a shard —
	// it is produced after the last checkpoint.
	emitted []dbg.Contig
}

// atBoundary returns the state as the checkpoint after step (it, stage)
// records it: the carried fields under that step's header, with this rank's
// shards of the live distributed structures attached.
func (st *rankState) atBoundary(r *pgas.Rank, it, stage int, alignsLive bool) *rankState {
	b := *st
	b.ranks, b.rank, b.it, b.stage = r.NRanks(), r.ID(), it, stage
	b.clock, b.resident = r.Clock(), r.Resident()
	b.hasAligns = alignsLive
	b.hasContigs, b.contigs = st.cset != nil, nil
	if b.hasContigs {
		b.contigs = st.cset.Local(r)
	}
	b.hasCounts, b.counts = st.kmers != nil, nil
	if b.hasCounts {
		b.counts = collectCounts(st.kmers, r.ID())
	}
	return &b
}

// scaffoldCounters lists a scaffold.Result's counters in their shard order
// (wire-visible, so frozen).
func scaffoldCounters(sr *scaffold.Result) [8]*int {
	return [8]*int{&sr.SplintLinks, &sr.SpanLinks, &sr.AcceptedLinks, &sr.RepeatsSuspended,
		&sr.Components, &sr.RRNAHits, &sr.GapsTotal, &sr.GapsClosed}
}

// rankStateMagic versions the per-rank shard format. v2 widened the read
// record with the SampleID tag; a v1 shard (written before the sample axis
// existed) is refused at decode — its magic no longer matches — so an old
// checkpoint surfaces as ErrCorruptShard instead of mis-decoding the tail
// of every read record.
const rankStateMagic = "mhm-rank-state-v2"

// fields is the shard layout of a rankState: the one list encodeRankState
// and decodeRankState both walk. Decoding refuses a foreign magic and a stage
// index outside the table where it meets them.
func (st *rankState) fields(c *checkpoint.Codec) {
	magic := rankStateMagic
	c.Str(&magic)
	c.Check(func() error {
		if magic != rankStateMagic {
			return fmt.Errorf("bad rank-state magic %q", magic)
		}
		return nil
	})
	c.Int(&st.ranks)
	c.Int(&st.rank)
	c.Int(&st.it)
	c.Int(&st.stage)
	c.Check(func() error {
		if st.stage < 0 || st.stage >= len(stages) {
			return fmt.Errorf("stage index %d out of range", st.stage)
		}
		return nil
	})
	c.F64(&st.clock)
	c.U64(&st.resident)
	c.Int(&st.readOffset)
	c.Int(&st.shippedReadBytes)
	checkpoint.Slice(c, &st.reads, checkpoint.ReadFields)
	c.Int(&st.distinctKmers)
	c.I64(&st.heavyHitterMax)
	c.F64(&st.alignedFrac)
	c.Int(&st.localAsmBases)
	c.F64(&st.cacheHitRate)
	if c.Bool(&st.hasAligns) {
		checkpoint.Slice(c, &st.aligns, checkpoint.AlignmentFields)
	}
	if c.Bool(&st.hasContigs) {
		checkpoint.Slice(c, &st.contigs, checkpoint.ContigFields)
	}
	if c.Bool(&st.hasCounts) {
		checkpoint.Slice(c, &st.counts, checkpoint.KmerCountFields)
	}
	if c.Bool(&st.hasScaffold) {
		checkpoint.Slice(c, &st.scaffold.Scaffolds, checkpoint.ScaffoldFields)
		checkpoint.Slice(c, &st.scaffold.Local, checkpoint.ScaffoldFields)
		for _, n := range scaffoldCounters(&st.scaffold) {
			c.Int(n)
		}
		checkpoint.Slice(c, &st.rounds, roundStatsFields)
	}
}

// roundStatsFields is the shard layout of one scaffolding round's summary.
func roundStatsFields(c *checkpoint.Codec, rs *RoundStats) {
	c.Str(&rs.Library)
	c.Int(&rs.LibIndex)
	c.Int(&rs.InsertSize)
	c.Int(&rs.InputContigs)
	c.Int(&rs.Scaffolds)
	c.Int(&rs.AcceptedLinks)
}

// encodeRankState serializes a rankState into the checkpoint wire format.
func encodeRankState(st *rankState) []byte {
	var e checkpoint.Enc
	st.fields(e.Codec())
	return e.Bytes()
}

// decodeRankState is the error-returning inverse of encodeRankState. It
// never panics on corrupted or truncated input.
func decodeRankState(data []byte) (*rankState, error) {
	d := checkpoint.NewDec(data)
	st := &rankState{}
	st.fields(d.Codec())
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// ckptWriter coordinates checkpoint writes across the rank goroutines. Every
// rank calls record between the stage-end barrier and the next barrier;
// rank 0 additionally waits for all deposits, appends the manifest step and
// saves the manifest. The coordination is plain Go synchronization, not PGAS
// collectives: checkpoint I/O must not advance the simulated clocks, or a
// checkpointed run would diverge from an uncheckpointed one.
//
// No rank passes a barrier between its stage-end and its deposit, so even a
// mid-collective abort (InjectBarrierFailure) cannot strand rank 0 waiting
// for a deposit that will never arrive.
type ckptWriter struct {
	dir   string
	ranks int

	mu   sync.Mutex
	cond *sync.Cond
	man  *checkpoint.Manifest
	cur  map[int]string
	err  error
}

// newCkptWriter creates the checkpoint directory, saves the (possibly
// resumed) manifest immediately — so the run identity is durable before the
// first stage completes — and returns the writer.
func newCkptWriter(dir string, ranks int, man *checkpoint.Manifest) (*ckptWriter, error) {
	w := &ckptWriter{dir: dir, ranks: ranks, man: man, cur: make(map[int]string)}
	w.cond = sync.NewCond(&w.mu)
	if err := man.Save(dir); err != nil {
		return nil, fmt.Errorf("core: writing checkpoint manifest: %w", err)
	}
	return w, nil
}

// record writes one rank's shard for the step (iteration, stage) and, on
// rank 0, completes the step: waits until every rank deposited, appends the
// chained step record and saves the manifest atomically. Write errors are
// latched (first error wins) and the chain is not extended past them.
//
// The rendezvous is scheduler-aware: rank 0's wait is a plain cond.Wait, and
// the ranks it waits for may themselves be parked waiting for a worker-pool
// slot, so rank 0 detaches from the pool for the duration of the wait (and
// the manifest I/O) — holding the slot across it would deadlock a Workers=1
// pool outright.
func (w *ckptWriter) record(r *pgas.Rank, iteration int, stage string, k int, payload []byte) {
	rank := r.ID()
	w.mu.Lock()
	seqNo := len(w.man.Steps)
	w.mu.Unlock()

	hash, err := checkpoint.WriteShard(checkpoint.ShardPath(w.dir, seqNo, stage, rank), payload)

	w.mu.Lock()
	if err != nil && w.err == nil {
		w.err = err
	}
	w.cur[rank] = hash
	w.cond.Broadcast()
	if rank != 0 {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()

	r.Detach()
	w.mu.Lock()
	for len(w.cur) < w.ranks {
		w.cond.Wait()
	}
	hashes := make([]string, w.ranks)
	for p, h := range w.cur {
		hashes[p] = h
	}
	w.cur = make(map[int]string)
	if w.err == nil {
		w.man.AppendStep(iteration, stage, k, hashes)
		if err := w.man.Save(w.dir); err != nil && w.err == nil {
			w.err = err
		}
	}
	w.mu.Unlock()
	r.Reattach()
}

// head returns the manifest's current chain head.
func (w *ckptWriter) head() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.man.Head()
}

// firstErr returns the first latched write error, if any.
func (w *ckptWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// resumeState is the decoded and validated restart point loadResume builds
// before the SPMD region starts: the per-rank states, each carrying the
// shared distributed structures, reconstructed charge-free (their simulated
// cost lives in the restored rank clocks).
type resumeState struct {
	it, stage int
	states    []rankState
	man       *checkpoint.Manifest
}

// loadResume validates the checkpoint directory against the resuming run's
// identity and rebuilds the restart state. Every refusal carries one of the
// checkpoint package's sentinel errors.
func loadResume(dir string, reads []seq.Read, cfg Config, ks []int, machine *pgas.Machine) (*resumeState, error) {
	man, err := checkpoint.Load(dir)
	if err != nil {
		return nil, err
	}
	if err := man.ValidateFor(configHash(cfg, ks), inputHash(reads), cfg.Ranks); err != nil {
		return nil, err
	}
	if len(man.Steps) == 0 {
		return nil, fmt.Errorf("core: checkpoint %s records no completed steps to resume from", dir)
	}
	last := man.Steps[len(man.Steps)-1]
	stage, ok := stageByName(last.Stage)
	if !ok {
		return nil, fmt.Errorf("%w: unknown stage %q", checkpoint.ErrBadManifest, last.Stage)
	}
	rs := &resumeState{it: last.Iteration, stage: stage, man: man, states: make([]rankState, cfg.Ranks)}
	for p := 0; p < cfg.Ranks; p++ {
		payload, err := checkpoint.ReadShard(checkpoint.ShardPath(dir, last.Seq, last.Stage, p), last.ShardHashes[p])
		if err != nil {
			return nil, err
		}
		st, err := decodeRankState(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: rank %d: %v", checkpoint.ErrCorruptShard, p, err)
		}
		if st.ranks != cfg.Ranks || st.rank != p || st.it != last.Iteration || st.stage != stage {
			return nil, fmt.Errorf("%w: rank %d shard header (P=%d rank=%d it=%d stage=%d) does not match manifest step (P=%d rank=%d it=%d stage=%d)",
				checkpoint.ErrCorruptShard, p, st.ranks, st.rank, st.it, st.stage, cfg.Ranks, p, last.Iteration, stage)
		}
		rs.states[p] = *st
	}

	if rs.states[0].hasContigs {
		shards := make([][]dbg.Contig, cfg.Ranks)
		for p := range rs.states {
			if !rs.states[p].hasContigs {
				return nil, fmt.Errorf("%w: contig shard present on rank 0 but absent on rank %d", checkpoint.ErrCorruptShard, p)
			}
			shards[p] = rs.states[p].contigs
			for i, c := range shards[p] {
				if c.ID != dist.ID(p, i) {
					return nil, fmt.Errorf("%w: rank %d holds contig ID %d at shard index %d, which names another owner or index (want %d)",
						checkpoint.ErrCorruptShard, p, c.ID, i, dist.ID(p, i))
				}
			}
		}
		cset := dist.RestoreSet(shards, dbg.Contig.WireSize)
		for p := range rs.states {
			rs.states[p].cset = cset
		}
	}
	if rs.states[0].hasCounts {
		cm := kmeranalysis.NewCountsMap(machine)
		for p := range rs.states {
			for _, kc := range rs.states[p].counts {
				if cm.Owner(kc.Kmer) != p {
					return nil, fmt.Errorf("%w: k-mer %s stored in rank %d's shard but owned by rank %d",
						checkpoint.ErrCorruptShard, kc.Kmer.String(), p, cm.Owner(kc.Kmer))
				}
				cm.Restore(p, kc.Kmer, kc)
			}
		}
		for p := range rs.states {
			rs.states[p].kmers = cm
		}
	}
	return rs, nil
}

// ckptRun bundles the per-run checkpoint/restart context threaded through
// runPipeline. A run with neither checkpointing nor resume carries a
// zero-value ckptRun, which is inert.
type ckptRun struct {
	writer *ckptWriter
	resume *resumeState
}

// done reports whether the stage (iteration it, stage index) had already
// completed before the resume point — such stages are skipped; their effects
// live in the restored state.
func (c *ckptRun) done(it, stage int) bool {
	if c == nil || c.resume == nil {
		return false
	}
	return it < c.resume.it || (it == c.resume.it && stage <= c.resume.stage)
}

// collectCounts snapshots one rank's partition of the counts table, sorted
// by k-mer: the table's iteration order is unspecified, and checkpoint
// shards must be deterministic bytes.
func collectCounts(counts *dht.Map[seq.Kmer, seq.KmerCount], rank int) []seq.KmerCount {
	var out []seq.KmerCount
	counts.RangeLocal(rank, func(_ seq.Kmer, v seq.KmerCount) { out = append(out, v) })
	sort.Slice(out, func(i, j int) bool { return out[i].Kmer.Less(out[j].Kmer) })
	return out
}
