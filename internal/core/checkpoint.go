package core

import (
	"errors"
	"fmt"
	"os"
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
	// next localization round replaces it. readsHash names the read shard
	// that holds reads, the one place a checkpoint keeps them: the rank-state
	// shard carries the hash instead. It is empty until the set first reaches
	// a checkpointed boundary, and cleared wherever reads is assigned.
	reads            []seq.Read
	readsHash        string
	readOffset       int
	shippedReadBytes int

	alignedFrac float64
	// totalReads is the run's read count, the one every rank deals its
	// initial block from. Read localization keeps every read, so it is also
	// the number an alignment pass aligns. Not part of a shard: the input
	// gives it.
	totalReads int

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

	// Scaffolding output, present once the scaffolding stage ran: the
	// emitted final list (rank 0 only) and one summary per round.
	scaffolds []scaffold.Scaffold
	rounds    []RoundStats

	// steps is the record of every step completed so far (rank 0 only): a
	// resumed run continues the list the checkpoint carries, so its
	// Result.Steps covers the whole run.
	steps []ProgressEvent

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

// rankStateMagic versions the per-rank shard format. v2 widened the read
// record with the SampleID tag; v3 dropped four pipeline scalars, the
// scaffolding counters and each rank's own scaffold shard, none of which a
// resumed run reads, and added rank 0's step records; v4 moved the reads out
// to a content-addressed read shard and carries its hash in their place; v5
// added each step record's traffic columns and v6 its barrier wait. An
// older shard is refused at decode — its magic no longer matches — so an old
// checkpoint surfaces as ErrCorruptShard instead of mis-decoding the fields
// after the first one that moved.
const rankStateMagic = "mhm-rank-state-v6"

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
	c.Str(&st.readsHash)
	c.F64(&st.alignedFrac)
	if c.Bool(&st.hasAligns) {
		checkpoint.Slice(c, &st.aligns, checkpoint.AlignmentFields)
	}
	if c.Bool(&st.hasContigs) {
		checkpoint.Slice(c, &st.contigs, checkpoint.ContigFields)
	}
	if c.Bool(&st.hasCounts) {
		checkpoint.Slice(c, &st.counts, checkpoint.KmerCountFields)
	}
	checkpoint.Slice(c, &st.scaffolds, checkpoint.ScaffoldFields)
	checkpoint.Slice(c, &st.rounds, roundStatsFields)
	checkpoint.Slice(c, &st.steps, progressEventFields)
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

// progressEventFields is the shard layout of one step record.
func progressEventFields(c *checkpoint.Codec, ev *ProgressEvent) {
	c.Str(&ev.Stage)
	c.Int(&ev.Iteration)
	c.Int(&ev.K)
	c.F64(&ev.Seconds)
	c.F64(&ev.SimSeconds)
	c.U64(&ev.ResidentBytes)
	c.U64(&ev.Messages)
	c.U64(&ev.OffNodeMessages)
	c.U64(&ev.BytesSent)
	c.U64(&ev.OffNodeBytes)
	c.U64(&ev.RemoteGets)
	c.U64(&ev.Barriers)
	c.F64(&ev.BarrierWait)
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

// ckptWriter coordinates checkpoint writes across the ranks. Every
// rank calls record between the stage-end barrier and the next barrier; the
// rank whose deposit completes a step appends the manifest step and saves the
// manifest. The coordination is a plain mutex, not PGAS collectives:
// checkpoint I/O must not advance the simulated clocks, or a checkpointed run
// would diverge from an uncheckpointed one. No rank waits for another's
// deposit, so no rank holds its worker across a wait outside the pgas
// runtime.
//
// Every rank deposits before its next barrier arrival, so no rank can record
// step S+1 before the last deposit of step S has chained it — even under a
// mid-collective abort (InjectBarrierFailure), which fires only at a barrier
// arrival.
type ckptWriter struct {
	dir   string
	ranks int

	mu  sync.Mutex
	man *checkpoint.Manifest
	cur map[int]string
	err error
}

// newCkptWriter creates the checkpoint directory, saves the (possibly
// resumed) manifest immediately — so the run identity is durable before the
// first stage completes — and returns the writer. A run resumed from another
// directory first copies the resume point there (adoptResumePoint), so the
// manifest never names a step whose shards the directory lacks.
func newCkptWriter(dir string, ranks int, man *checkpoint.Manifest, resumeDir string, rs *resumeState) (*ckptWriter, error) {
	if rs != nil && !sameDir(resumeDir, dir) {
		if err := adoptResumePoint(resumeDir, dir, rs); err != nil {
			return nil, fmt.Errorf("core: copying the resume point into %s: %w", dir, err)
		}
	}
	if err := man.Save(dir); err != nil {
		return nil, fmt.Errorf("core: writing checkpoint manifest: %w", err)
	}
	return &ckptWriter{dir: dir, ranks: ranks, man: man, cur: make(map[int]string)}, nil
}

// adoptResumePoint copies the last step's rank-state shards of the manifest
// rs resumed, and the read shards they name, from src into dst. Those are
// the files loadResume reads, so dst then resumes on its own from any later
// kill point; the writer adds every later shard itself. Each file is checked
// against its hash on the way.
func adoptResumePoint(src, dst string, rs *resumeState) error {
	last := rs.man.Steps[len(rs.man.Steps)-1]
	copied := make(map[string]bool)
	for p, st := range rs.states {
		if err := copyShard(checkpoint.ShardPath(src, last.Seq, last.Stage, p),
			checkpoint.ShardPath(dst, last.Seq, last.Stage, p), last.ShardHashes[p]); err != nil {
			return err
		}
		if !copied[st.readsHash] {
			copied[st.readsHash] = true
			if err := copyShard(checkpoint.ReadsPath(src, st.readsHash), checkpoint.ReadsPath(dst, st.readsHash), st.readsHash); err != nil {
				return err
			}
		}
	}
	return nil
}

// copyShard copies the shard file at src, which must hash to hash, to dst.
func copyShard(src, dst, hash string) error {
	payload, err := checkpoint.ReadShard(src, hash)
	if err != nil {
		return err
	}
	if got, err := checkpoint.WriteShard(dst, payload); err != nil {
		return err
	} else if got != hash {
		return fmt.Errorf("%w: %s copied to a file of another hash", checkpoint.ErrCorruptShard, src)
	}
	return nil
}

// sameDir reports whether a and b name one existing directory.
func sameDir(a, b string) bool {
	sa, err := os.Stat(a)
	if err != nil {
		return false
	}
	sb, err := os.Stat(b)
	return err == nil && os.SameFile(sa, sb)
}

// putReads makes sure the checkpoint directory holds the read shard of st's
// read set and stamps its hash on st. A read set is encoded, hashed and
// written when it first reaches a boundary; after that a boundary costs
// nothing, since the directory already holds the shard (a resumed set's was
// copied in by adoptResumePoint). A write error is latched like record's.
func (w *ckptWriter) putReads(st *rankState) {
	if st.readsHash != "" {
		return
	}
	hash, err := checkpoint.WriteReads(w.dir, st.reads)
	if err != nil {
		w.mu.Lock()
		if w.err == nil {
			w.err = err
		}
		w.mu.Unlock()
		hash = ""
	}
	st.readsHash = hash
}

// record writes one rank's shard for the step (iteration, stage) and stores
// its hash; the deposit that completes the step appends the chained step
// record and saves the manifest atomically. Write errors are latched (first
// error wins) and the chain is not extended past them.
func (w *ckptWriter) record(rank, iteration int, stage string, k int, payload []byte) {
	w.mu.Lock()
	seqNo := len(w.man.Steps)
	w.mu.Unlock()

	hash, err := checkpoint.WriteShard(checkpoint.ShardPath(w.dir, seqNo, stage, rank), payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil && w.err == nil {
		w.err = err
	}
	w.cur[rank] = hash
	if len(w.cur) < w.ranks {
		return
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
		if st.reads, err = checkpoint.LoadReads(dir, st.readsHash); err != nil {
			return nil, fmt.Errorf("rank %d reads: %w", p, err)
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
// shards must be deterministic bytes. The table holds one k, so the radix
// sort runs over that k's key bits.
func collectCounts(counts *dht.Map[seq.Kmer, seq.KmerCount], rank int) []seq.KmerCount {
	out := make([]seq.KmerCount, 0, counts.LocalLen(rank))
	counts.RangeLocal(rank, func(_ seq.Kmer, v seq.KmerCount) { out = append(out, v) })
	if len(out) == 0 {
		return nil
	}
	return seq.SortByKmer(out, int(out[0].Kmer.K), countKmer)
}

// countKmer is a count's sort key: its k-mer.
func countKmer(kc *seq.KmerCount) seq.Kmer { return kc.Kmer }
