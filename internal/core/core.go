// Package core implements the end-to-end MetaHipMer pipeline (Algorithm 1 +
// Algorithm 3 of the paper): iterative contig generation over a range of
// k-mer sizes followed by metagenome-aware scaffolding, executed SPMD-style
// on a virtual PGAS machine.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"mhmgo/internal/aligner"
	"mhmgo/internal/cgraph"
	"mhmgo/internal/checkpoint"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dist"
	"mhmgo/internal/hmm"
	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/localasm"
	"mhmgo/internal/pgas"
	"mhmgo/internal/scaffold"
	"mhmgo/internal/seq"
)

// Stage name constants used in timing breakdowns (Figure 5).
const (
	StageKmerAnalysis  = "kmer_analysis"
	StageKmerMerge     = "kmer_merge"
	StageDBGTraversal  = "dbg_traversal"
	StageContigRefine  = "contig_refine"
	StageAlignment     = "alignment"
	StageLocalAssembly = "local_assembly"
	StageScaffolding   = "scaffolding"
)

// Config controls a MetaHipMer assembly.
type Config struct {
	// Machine shape.
	Ranks        int
	RanksPerNode int
	Cost         pgas.CostModel
	// CostSet uses Cost verbatim even when it is the zero model (the
	// free-communication ablation); see pgas.Config.CostSet.
	CostSet bool
	// Workers bounds how many simulated ranks run concurrently as OS
	// threads (see pgas.Config.Workers). It is an execution knob, not a
	// simulation parameter: results, simulated time, and checkpoint
	// identity (configHash) are independent of it, so a run checkpointed
	// under one worker count can resume under another.
	Workers int

	// Iterative contig generation: k runs from KMin to KMax in steps of
	// KStep (Algorithm 1).
	KMin, KMax, KStep int

	// K-mer analysis parameters.
	MinKmerCount uint32
	UseBloom     bool

	// De Bruijn graph extension thresholds: the metagenome depth-dependent
	// rule uses TBase and ErrorRate; setting GlobalTHQ > 0 switches to the
	// HipMer single-genome rule (used by the baseline and the ablation).
	TBase     uint32
	ErrorRate float64
	GlobalTHQ uint32

	// Library geometry. Libraries lists the paired-end libraries of the
	// input reads, in the order their LibID tags index (seq.Read.LibID = i
	// refers to Libraries[i] — match the order the reads were simulated or
	// loaded with). Scaffolding runs one round per library in ascending
	// insert-size order, splicing each round's scaffolds back in as the
	// next round's contigs; local assembly widens its recruitment radius
	// per library.
	//
	// The legacy InsertSize/InsertStd pair remains a fully backward
	// compatible one-library shorthand: when Libraries is empty it is
	// promoted to a single-entry list, and a one-library config produces
	// byte-identical output to the pre-multi-library pipeline.
	Libraries  []seq.Library
	InsertSize int
	InsertStd  int

	// Optimization toggles (each is an ablation axis).
	Aggregate        bool
	SoftwareCache    bool
	ReadLocalization bool
	WorkStealing     bool
	UseComponents    bool

	// Pipeline stage toggles.
	BubbleMerging bool
	HairRemoval   bool
	Pruning       bool
	Compaction    bool
	LocalAssembly bool
	Scaffolding   bool

	// RRNAProfile enables the ribosomal-region scaffolding rule and rRNA
	// counting.
	RRNAProfile *hmm.Profile

	// MinContigLen drops contigs shorter than this from the final output.
	MinContigLen int

	// Checkpoint/restart (the robustness pillar: production HipMer/MetaHipMer
	// runs survive multi-hour assemblies by checkpointing between stages).
	//
	// CheckpointDir, when non-empty, makes the run serialize every rank's
	// surviving pipeline state after each stage into that directory, chained
	// into a content-hashed manifest (see the checkpoint package). ResumeFrom,
	// when non-empty, restores the run from the last completed stage recorded
	// in that directory; the resume is refused — with a distinct error per
	// failure mode — if the configuration hash, input reads hash or rank
	// count differ from the checkpointed run, or if the manifest chain or any
	// shard file fails verification. A resumed run reproduces the
	// uninterrupted run bit-for-bit: final sequences, simulated seconds and
	// manifest head hash are all identical.
	CheckpointDir string
	ResumeFrom    string

	// Progress, when non-nil, receives one event after every completed
	// pipeline stage — scaffolding is one stage, so it reports once however
	// many library rounds it ran — emitted by rank 0's goroutine immediately
	// after the stage-end barrier. The callback runs outside simulated time —
	// it charges nothing and cannot perturb results — but it executes
	// synchronously on the SPMD critical path, so it should return quickly
	// (hand the event to a channel or buffer, don't block on I/O).
	// Progress is an observation hook, not a simulation parameter: it is
	// excluded from the checkpoint configuration hash.
	Progress func(ProgressEvent)

	// Fault injection (testing). FailAfterStage kills the run (Assemble
	// returns ErrFaultInjected) immediately after the named stage of
	// iteration FailAtIteration completed and its checkpoint was written; a
	// pair that names no step of the run's schedule is refused up front.
	// FailAtBarrier > 0 kills the run abruptly in the middle of rank 0's n-th
	// barrier entry — mid-collective, the worst possible moment. Neither knob
	// participates in the configuration hash: a resume with the fault cleared
	// must still match the killed run's identity.
	FailAfterStage  string
	FailAtIteration int
	FailAtBarrier   int
}

// DefaultConfig returns the standard MetaHipMer configuration for the given
// machine shape.
func DefaultConfig(ranks int) Config {
	return Config{
		Ranks:            ranks,
		RanksPerNode:     4,
		KMin:             21,
		KMax:             33,
		KStep:            12,
		MinKmerCount:     2,
		UseBloom:         true,
		TBase:            2,
		ErrorRate:        0.015,
		InsertSize:       seq.DefaultInsertSize,
		InsertStd:        seq.DefaultInsertStd,
		Aggregate:        true,
		SoftwareCache:    true,
		ReadLocalization: true,
		WorkStealing:     true,
		UseComponents:    true,
		BubbleMerging:    true,
		HairRemoval:      true,
		Pruning:          true,
		Compaction:       true,
		LocalAssembly:    true,
		Scaffolding:      true,
		MinContigLen:     0,
	}
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.RanksPerNode <= 0 {
		c.RanksPerNode = c.Ranks
	}
	if c.KMin <= 0 {
		c.KMin = 21
	}
	if c.KMax < c.KMin {
		c.KMax = c.KMin
	}
	if c.KStep <= 0 {
		c.KStep = 12
	}
	if c.MinKmerCount == 0 {
		c.MinKmerCount = 2
	}
	if c.ErrorRate <= 0 {
		c.ErrorRate = 0.015
	}
	if c.TBase == 0 {
		c.TBase = 2
	}
	if c.InsertSize <= 0 {
		c.InsertSize = seq.DefaultInsertSize
	}
	if c.InsertStd <= 0 {
		c.InsertStd = c.InsertSize / 10
	}
	// The legacy single-library shorthand: an empty library list is one
	// library with the flat InsertSize/InsertStd geometry. Explicit lists
	// get the same per-entry defaulting.
	if len(c.Libraries) == 0 {
		c.Libraries = []seq.Library{{Name: "pe", InsertSize: c.InsertSize, InsertStd: c.InsertStd}}
	} else {
		libs := append([]seq.Library(nil), c.Libraries...)
		for i := range libs {
			if libs[i].Name == "" {
				libs[i].Name = fmt.Sprintf("lib%d", i)
			}
			if libs[i].InsertSize <= 0 {
				libs[i].InsertSize = seq.DefaultInsertSize
			}
			if libs[i].InsertStd <= 0 {
				libs[i].InsertStd = libs[i].InsertSize / 10
			}
		}
		c.Libraries = libs
	}
	return c
}

// scaffoldOrder returns the library indices in scaffolding-round order:
// ascending insert size, ties broken by name and then by index, so the round
// schedule is a pure function of the library list.
func scaffoldOrder(libs []seq.Library) []int {
	order := make([]int, len(libs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := libs[order[a]], libs[order[b]]
		if la.InsertSize != lb.InsertSize {
			return la.InsertSize < lb.InsertSize
		}
		if la.Name != lb.Name {
			return la.Name < lb.Name
		}
		return order[a] < order[b]
	})
	return order
}

// KValues returns the k values of the iterative contig generation.
func (c Config) KValues() []int {
	c = c.withDefaults()
	var ks []int
	for k := c.KMin; k <= c.KMax; k += c.KStep {
		if k%2 == 0 {
			k++
		}
		if len(ks) > 0 && ks[len(ks)-1] >= k {
			continue
		}
		if k > seq.MaxK {
			break
		}
		ks = append(ks, k)
	}
	return ks
}

// ProgressEvent describes one completed pipeline stage of a running
// assembly, as delivered to Config.Progress. Events arrive in pipeline
// order; SimSeconds and ResidentBytes are rank 0's view at the stage-end
// barrier (the clock is identical on every rank there).
type ProgressEvent struct {
	// Stage is the completed stage's name (the Stage* constants).
	Stage string `json:"stage"`
	// Iteration is the k-iteration index the stage ran in; K its k-mer size.
	// Scaffolding reports the final iteration.
	Iteration int `json:"iteration"`
	K         int `json:"k"`
	// SimSeconds is the simulated clock at the stage boundary.
	SimSeconds float64 `json:"sim_seconds"`
	// ResidentBytes is rank 0's resident collective-payload meter at the
	// boundary (see pgas.CommStats.PeakResidentBytes for the run-wide peak).
	ResidentBytes uint64 `json:"resident_bytes"`
}

// Result is the outcome of an assembly.
type Result struct {
	// Contigs are the final contigs of iterative contig generation.
	Contigs []dbg.Contig
	// Scaffolds are the final gap-closed scaffolds (empty when scaffolding
	// is disabled).
	Scaffolds []scaffold.Scaffold
	// SimSeconds is the simulated parallel runtime; WallSeconds is the real
	// elapsed time of the (single-process) execution.
	SimSeconds  float64
	WallSeconds float64
	// Stages is the simulated time per pipeline stage (summed over
	// iterations).
	Stages []pgas.StageTime
	// Stats aggregates communication statistics over all ranks.
	Stats pgas.CommStats
	// Per-stage substatistics.
	TotalReads      int
	DistinctKmers   int
	HeavyHitterMax  int64
	AlignedReadFrac float64
	LocalAsmBases   int
	ScaffoldSummary scaffold.Result
	ContigStats     dbg.Stats
	ScaffoldStats   scaffold.Stats
	CacheHitRate    float64
	// ScaffoldRounds records one entry per scaffolding round, in execution
	// order (ascending library insert size). A single-library assembly has
	// exactly one round.
	ScaffoldRounds []RoundStats
	// ManifestHead is the checkpoint manifest's chain head hash (empty when
	// the run neither wrote checkpoints nor resumed from one). Two runs with
	// equal heads executed the identical pipeline over identical inputs.
	ManifestHead string
}

// RoundStats summarizes one scaffolding round: which library drove it and
// what it consumed and produced. A round's scaffolds re-enter the next round
// as its contigs, so InputContigs of round i+1 reflects (deduplicated)
// Scaffolds of round i.
type RoundStats struct {
	// Library is the library's name; LibIndex its position in
	// Config.Libraries (the LibID the round's alignments were filtered by).
	Library  string
	LibIndex int
	// InsertSize is the library geometry the round scaffolded with.
	InsertSize int
	// InputContigs is the global contig count entering the round; Scaffolds
	// the global scaffold count it produced; AcceptedLinks the accepted
	// contig-graph edges of the round.
	InputContigs  int
	Scaffolds     int
	AcceptedLinks int
}

// FinalSequences returns the assembly output: scaffold sequences when
// scaffolding ran, contig sequences otherwise.
func (r *Result) FinalSequences() [][]byte {
	if len(r.Scaffolds) > 0 {
		out := make([][]byte, len(r.Scaffolds))
		for i, s := range r.Scaffolds {
			out[i] = s.Seq
		}
		return out
	}
	out := make([][]byte, len(r.Contigs))
	for i, c := range r.Contigs {
		out[i] = c.Seq
	}
	return out
}

// Assemble runs the full MetaHipMer pipeline over the reads. Reads must be
// interleaved paired-end (mates at indices 2i and 2i+1); single-end data
// still assembles but produces no span links.
func Assemble(reads []seq.Read, cfg Config) (*Result, error) {
	return AssembleContext(context.Background(), reads, cfg)
}

// AssembleContext is Assemble with cancellation: when ctx is cancelled the
// virtual machine aborts (every rank unwinds at its next barrier) and the
// call returns an error wrapping pgas.ErrAborted together with the context's
// cause. Cancellation is prompt — collectives are barrier-synchronized, so
// no rank can block waiting for a peer that already unwound — and clean: the
// machine's worker pool drains, no goroutines leak, and checkpoints written
// before the abort remain durable and resumable. This is the serving layer's
// entry point: each job runs on its own machine under its own context.
func AssembleContext(ctx context.Context, reads []seq.Read, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ks := cfg.KValues()
	if len(ks) == 0 {
		return nil, fmt.Errorf("core: no valid k values in [%d,%d]", cfg.KMin, cfg.KMax)
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("core: no reads to assemble")
	}
	if len(cfg.Libraries) > 256 {
		return nil, fmt.Errorf("core: %d libraries exceed the 256 the uint8 LibID tag can address", len(cfg.Libraries))
	}

	if err := validateFault(cfg, len(ks)); err != nil {
		return nil, err
	}

	machine := pgas.NewMachine(pgas.Config{Ranks: cfg.Ranks, RanksPerNode: cfg.RanksPerNode, Cost: cfg.Cost, CostSet: cfg.CostSet, Workers: cfg.Workers})
	res := &Result{TotalReads: len(reads)}

	// Checkpoint/restart context. Resume validation, shard decoding and the
	// reconstruction of the distributed structures all happen here — outside
	// the SPMD region and charge-free, because the uninterrupted run never
	// performs them; their simulated cost lives in the restored rank clocks.
	ck := &ckptRun{}
	if cfg.ResumeFrom != "" {
		rs, err := loadResume(cfg.ResumeFrom, reads, cfg, ks, machine)
		if err != nil {
			return nil, err
		}
		ck.resume = rs
		// validateFault knows only the schedule; a step at or before the
		// resume point is on it but is skipped, so its fault would never fire.
		if si, ok := stageByName(cfg.FailAfterStage); ok && ck.done(cfg.FailAtIteration, si) {
			return nil, fmt.Errorf("core: FailAfterStage %q can never fire at FailAtIteration %d: the checkpoint in %s already covers the run through stage %s of iteration %d",
				cfg.FailAfterStage, cfg.FailAtIteration, cfg.ResumeFrom, stages[rs.stage].name, rs.it)
		}
	}
	if cfg.CheckpointDir != "" {
		man := checkpoint.New(configHash(cfg, ks), inputHash(reads), cfg.Ranks)
		if ck.resume != nil {
			// Continue the resumed run's chain: the head hash must end up
			// identical to an uninterrupted run's.
			man = ck.resume.man
		}
		w, err := newCkptWriter(cfg.CheckpointDir, cfg.Ranks, man)
		if err != nil {
			return nil, err
		}
		ck.writer = w
	}
	if cfg.FailAtBarrier > 0 {
		machine.InjectBarrierFailure(uint64(cfg.FailAtBarrier),
			fmt.Errorf("%w: killed inside barrier %d", ErrFaultInjected, cfg.FailAtBarrier))
	}

	stopWatch := machine.AbortOnCancel(ctx)
	// Rank 0's view is the run's outcome: the replicated fields are identical
	// on every rank and the final emit lands on rank 0 only.
	var out *rankState
	var killed bool
	runRes := machine.Run(func(r *pgas.Rank) {
		st, k := runPipeline(r, reads, cfg, ks, ck)
		if r.ID() == 0 {
			out, killed = st, k
		}
	})
	stopWatch()
	if runRes.Err != nil {
		return nil, runRes.Err
	}
	if ck.writer != nil {
		if err := ck.writer.firstErr(); err != nil {
			return nil, fmt.Errorf("core: checkpoint write failed: %w", err)
		}
	}
	if killed {
		return nil, fmt.Errorf("%w: killed after stage %s of iteration %d",
			ErrFaultInjected, cfg.FailAfterStage, cfg.FailAtIteration)
	}
	if ck.writer != nil {
		res.ManifestHead = ck.writer.head()
	} else if ck.resume != nil {
		res.ManifestHead = ck.resume.man.Head()
	}

	res.SimSeconds = runRes.SimSeconds
	res.WallSeconds = runRes.Wall.Seconds()
	res.Stages = runRes.Stages
	res.Stats = runRes.Stats

	res.Contigs = out.emitted
	res.Scaffolds = out.scaffold.Scaffolds
	res.ScaffoldSummary = out.scaffold
	res.ScaffoldRounds = out.rounds
	res.DistinctKmers = out.distinctKmers
	res.HeavyHitterMax = out.heavyHitterMax
	res.AlignedReadFrac = out.alignedFrac
	res.LocalAsmBases = out.localAsmBases
	res.CacheHitRate = out.cacheHitRate
	res.ContigStats = dbg.ComputeStats(res.Contigs)
	res.ScaffoldStats = scaffold.ComputeStats(res.Scaffolds)
	return res, nil
}

// stage is one entry of the pipeline's schedule. The table below is the only
// place the stages and their order are declared: a stage's position in it is
// its checkpoint index — written into every shard header, so the order is
// frozen — and its name is what timing breakdowns, progress events and
// manifest steps carry.
type stage struct {
	name string
	// scheduled reports whether the stage runs in iteration it of a run with
	// nIter k-iterations. It is a pure function of the configuration, so the
	// whole schedule is known before the run starts.
	scheduled func(cfg Config, it, nIter int) bool
	// alignsLive reports whether a later step still consumes the alignments
	// once this stage has completed; only then does a checkpoint at its
	// boundary serialize them. Nil means never.
	alignsLive func(cfg Config, it, nIter int) bool
	// run is the stage body. It mutates the rank's carried state and charges
	// all of its work inside the window the driver opened for it.
	run func(r *pgas.Rank, cfg Config, k int, st *rankState)
}

// stages is Algorithm 1's six stages per k followed by Algorithm 3's
// scaffolding, which runs once and is recorded under the final iteration.
var stages = []stage{
	{name: StageKmerAnalysis, scheduled: everyIteration, run: runKmerAnalysis},
	{name: StageKmerMerge, scheduled: func(_ Config, it, _ int) bool { return it > 0 }, run: runKmerMerge},
	{name: StageDBGTraversal, scheduled: everyIteration, run: runDBGTraversal},
	{name: StageContigRefine, scheduled: everyIteration, run: runContigRefine},
	{name: StageAlignment, scheduled: everyIteration, run: runAlignment,
		alignsLive: func(cfg Config, it, nIter int) bool { return cfg.LocalAssembly || localizes(cfg, it, nIter) }},
	{name: StageLocalAssembly, scheduled: func(cfg Config, _, _ int) bool { return cfg.LocalAssembly }, run: runLocalAssembly,
		alignsLive: localizes},
	{name: StageScaffolding, scheduled: func(cfg Config, it, nIter int) bool { return cfg.Scaffolding && it == nIter-1 }, run: runScaffolding},
}

func everyIteration(Config, int, int) bool { return true }

// localizes reports whether the reads are redistributed to their contigs'
// owners at the end of iteration it (Section II-I): after every iteration but
// the last.
func localizes(cfg Config, it, nIter int) bool { return cfg.ReadLocalization && it < nIter-1 }

// stageByName resolves a stage name to its index in the table.
func stageByName(name string) (int, bool) {
	i := slices.IndexFunc(stages, func(sg stage) bool { return sg.name == name })
	return i, i >= 0
}

// validateFault rejects a (FailAtIteration, FailAfterStage) pair that names
// no step of the run's schedule: such a fault never fires, and the run would
// complete as if none had been requested.
func validateFault(cfg Config, nIter int) error {
	if cfg.FailAfterStage == "" {
		return nil
	}
	si, ok := stageByName(cfg.FailAfterStage)
	if !ok {
		return fmt.Errorf("core: FailAfterStage names unknown stage %q", cfg.FailAfterStage)
	}
	var valid []int
	for it := 0; it < nIter; it++ {
		if stages[si].scheduled(cfg, it, nIter) {
			valid = append(valid, it)
		}
	}
	if slices.Contains(valid, cfg.FailAtIteration) {
		return nil
	}
	if len(valid) == 0 {
		return fmt.Errorf("core: FailAfterStage %q can never fire: the stage is not on this configuration's schedule", cfg.FailAfterStage)
	}
	return fmt.Errorf("core: FailAfterStage %q can never fire at FailAtIteration %d: the stage runs in iterations %v",
		cfg.FailAfterStage, cfg.FailAtIteration, valid)
}

// alignerOptions is the read-to-contig aligner set-up shared by the alignment
// stage and the scaffolding rounds.
func alignerOptions(cfg Config, k int) aligner.Options {
	opts := aligner.DefaultOptions(min(k, 31))
	opts.UseCache = cfg.SoftwareCache
	return opts
}

// runPipeline is the SPMD body executed by every rank: it walks the stage
// table once per k and returns the rank's final state, plus whether the
// injected fault killed the run (identical on all ranks — the kill condition
// is a pure function of the schedule). ck carries the run's checkpoint/restart
// context (a zero-value ckptRun when neither is active).
func runPipeline(r *pgas.Rank, allReads []seq.Read, cfg Config, ks []int, ck *ckptRun) (st *rankState, killed bool) {
	if ck.resume != nil {
		// Re-enter the schedule at the step after the resume point. The
		// restored clock and resident meter are the exact bit patterns the
		// uninterrupted run carried at this boundary, so everything simulated
		// from here on reproduces it identically.
		st = &ck.resume.states[r.ID()]
		r.RestoreState(st.clock, st.resident)
	} else {
		// Initial block distribution of the reads, in whole pairs.
		lo, hi := r.PairBlockRange(len(allReads))
		st = &rankState{reads: allReads[lo:hi], readOffset: lo}
	}
	nIter := len(ks)

	// step runs stage si of iteration it and reports whether the injected
	// fault fires at its boundary. Steps the schedule omits, and steps at or
	// before the resume point — their effects live in the restored state —
	// are skipped. The checkpoint deposit sits between the stage-end barrier
	// and the next collective and uses only out-of-band Go synchronization:
	// checkpoint I/O must never advance the simulated clocks, or a
	// checkpointed run would diverge from an uncheckpointed one.
	step := func(it, si int) bool {
		sg := &stages[si]
		if !sg.scheduled(cfg, it, nIter) || ck.done(it, si) {
			return false
		}
		k := ks[it]
		t0 := r.StageStart()
		sg.run(r, cfg, k, st)
		r.StageEnd(sg.name, t0)
		reportProgress(r, cfg, sg.name, it, k)
		if ck.writer != nil {
			alignsLive := sg.alignsLive != nil && sg.alignsLive(cfg, it, nIter)
			ck.writer.record(r, it, sg.name, k, encodeRankState(st.atBoundary(r, it, si, alignsLive)))
		}
		return cfg.FailAfterStage == sg.name && cfg.FailAtIteration == it
	}

	// Algorithm 1's stages for every k, then Algorithm 3's scaffolding (the
	// table's last entry) once. Read localization and the MinContigLen filter
	// run between stage windows — their charges belong to no stage and they
	// are not checkpointed — so the driver owns them, not the table.
	scaffolding := len(stages) - 1
	for it := range ks {
		for si := 0; si < scaffolding; si++ {
			if step(it, si) {
				return st, true
			}
		}
		// Read localization (Section II-I): the reads are redistributed so
		// reads aligned to a contig live on the rank that owns the contig. A
		// resume into the next iteration carries the localized reads in its
		// restored state; a resume at this iteration's last stage replays the
		// exchange deterministically from the restored alignments.
		if localizes(cfg, it, nIter) && !ck.done(it+1, 0) { // 0: the next iteration's first step
			// The previous round's shipped reads are superseded by this
			// exchange: return their resident charge before re-charging.
			r.ReleaseResident(st.shippedReadBytes)
			st.reads, st.readOffset, st.shippedReadBytes = localizePairs(r, st.cset, st.reads, st.readOffset, st.aligns)
			st.aligns = nil
		}
	}
	// Drop short contigs shard-locally and re-stamp the IDs. Skipped on a
	// resume past the scaffolding checkpoint: the restored set is already
	// filtered (the scaffolding stage consumed it).
	if cfg.MinContigLen > 0 && !ck.done(nIter-1, scaffolding) {
		st.cset.FilterLocal(r, func(c dbg.Contig) bool { return len(c.Seq) >= cfg.MinContigLen })
		dbg.RenumberContigs(r, st.cset)
	}
	if step(nIter-1, scaffolding) {
		return st, true
	}
	emitFinal(r, st)
	return st, false
}

// runKmerAnalysis counts the iteration's k-mers into a fresh table.
func runKmerAnalysis(r *pgas.Rank, cfg Config, k int, st *rankState) {
	kopts := kmeranalysis.DefaultOptions(k)
	kopts.MinCount = cfg.MinKmerCount
	kopts.UseBloom = cfg.UseBloom
	kopts.Aggregate = cfg.Aggregate
	kares := kmeranalysis.Run(r, st.reads, kopts, nil)
	st.kmers = kares.Counts
	st.distinctKmers = kares.DistinctKmers
	if len(kares.HeavyHitters) > 0 && kares.HeavyHitters[0].Count > st.heavyHitterMax {
		st.heavyHitterMax = kares.HeavyHitters[0].Count
	}
}

// runKmerMerge merges the previous iteration's contig k-mers (Section II-H)
// so low-coverage organisms keep their assembled regions. The contigs are
// owner-distributed, so each rank merges its own shard.
func runKmerMerge(r *pgas.Rank, cfg Config, k int, st *rankState) {
	var seqs [][]byte
	st.cset.ForEachLocal(r, func(_ int, c dbg.Contig) { seqs = append(seqs, c.Seq) })
	kmeranalysis.MergeContigKmers(r, st.kmers, seqs, k, cfg.MinKmerCount+1)
}

// runDBGTraversal builds and traverses the de Bruijn graph. The emitted
// contigs are routed to their content-hash owners and stamped with
// owner-naming IDs; the previous iteration's set is released.
func runDBGTraversal(r *pgas.Rank, cfg Config, k int, st *rankState) {
	topts := dbg.ThresholdOptions{TBase: cfg.TBase, ErrorRate: cfg.ErrorRate, GlobalTHQ: cfg.GlobalTHQ, MinCount: 1}
	graph := dbg.Build(r, st.kmers, k, topts)
	local := dbg.Traverse(r, graph, dbg.TraverseOptions{})
	next := dbg.DistributeContigs(r, local, dist.Distributed)
	if st.cset != nil {
		st.cset.Release(r)
	}
	st.cset = next
	// The counts table is consumed by graph construction; the next iteration
	// builds a fresh one, so it leaves the checkpoint state.
	st.kmers = nil
}

// runContigRefine runs bubble merging, hair removal, iterative pruning and
// chain compaction, all on the distributed set.
func runContigRefine(r *pgas.Rank, cfg Config, k int, st *rankState) {
	copts := cgraph.DefaultOptions(k)
	copts.MergeBubbles = cfg.BubbleMerging
	copts.RemoveHair = cfg.HairRemoval
	copts.Prune = cfg.Pruning
	copts.Compact = cfg.Compaction
	copts.Aggregate = cfg.Aggregate
	st.cset = cgraph.Refine(r, st.cset, copts).Set
}

// runAlignment aligns the rank's reads to the contig set.
func runAlignment(r *pgas.Rank, cfg Config, k int, st *rankState) {
	aopts := alignerOptions(cfg, k)
	idx := aligner.BuildIndex(r, st.cset, aopts)
	aligns, astats := aligner.AlignReads(r, idx, st.reads, st.readOffset, aopts)
	st.aligns = aligns
	alignedAll := pgas.AllReduce(r, int64(astats.ReadsAligned), pgas.ReduceSum)
	totalAll := pgas.AllReduce(r, int64(astats.ReadsTotal), pgas.ReduceSum)
	if totalAll > 0 {
		st.alignedFrac = float64(alignedAll) / float64(totalAll)
	}
	st.cacheHitRate = astats.CacheHitRate
}

// runLocalAssembly extends contigs by mer-walking with work sharing; the
// extensions are applied owner-side in place.
func runLocalAssembly(r *pgas.Rank, cfg Config, k int, st *rankState) {
	lopts := localasm.DefaultOptions(k)
	lopts.WorkStealing = cfg.WorkStealing
	lopts.Libraries = cfg.Libraries
	st.localAsmBases = localasm.Run(r, st.cset, st.reads, st.readOffset, st.aligns, lopts).ExtendedBases
}

// runScaffolding is Algorithm 3, one round per library in ascending
// insert-size order. Each round aligns its own library's reads (by the LibID
// tag) against the current contig set; an intermediate round's scaffolds are
// spliced back in as the next round's contigs (content-hash deduplicated,
// canonically owned), so longer-insert libraries link the structures the
// shorter ones built. With one library the loop degenerates to exactly the
// legacy single-round flow.
func runScaffolding(r *pgas.Rank, cfg Config, k int, st *rankState) {
	st.hasScaffold = true
	order := scaffoldOrder(cfg.Libraries)
	for ri, li := range order {
		lib := cfg.Libraries[li]
		inputContigs := st.cset.GlobalLen(r)
		aopts := alignerOptions(cfg, k)
		if len(order) > 1 {
			// Align only this round's library: the other libraries'
			// alignments would be discarded, and alignment is independent
			// per read, so the restriction changes charged work but never
			// output.
			roundLib := uint8(li)
			aopts.OnlyLib = &roundLib
		}
		idx := aligner.BuildIndex(r, st.cset, aopts)
		aligns, _ := aligner.AlignReads(r, idx, st.reads, st.readOffset, aopts)
		sopts := scaffold.DefaultOptions(k, lib.InsertSize)
		if lib.InsertStd > 0 {
			sopts.InsertStd = lib.InsertStd
		}
		sopts.Aggregate = cfg.Aggregate
		sopts.UseComponents = cfg.UseComponents
		sopts.RRNAProfile = cfg.RRNAProfile
		last := ri == len(order)-1
		sopts.SkipEmit = !last
		sres := scaffold.Run(r, st.cset, st.reads, st.readOffset, aligns, sopts)
		nScaffolds := pgas.AllReduce(r, len(sres.Local), pgas.ReduceSum)
		st.rounds = append(st.rounds, RoundStats{
			Library:       lib.Name,
			LibIndex:      li,
			InsertSize:    lib.InsertSize,
			InputContigs:  inputContigs,
			Scaffolds:     nScaffolds,
			AcceptedLinks: sres.AcceptedLinks,
		})
		// Counters are summed over rounds; the scaffold lists are the latest
		// round's (the final round's is the assembly's output).
		total, round := scaffoldCounters(&st.scaffold), scaffoldCounters(&sres)
		for i := range total {
			*total[i] += *round[i]
		}
		st.scaffold.Scaffolds, st.scaffold.Local = sres.Scaffolds, sres.Local
		if last {
			break
		}
		// Splice this round's scaffolds back in as the next round's
		// contigs. The scaffold sequences are fresh buffers independent of
		// the old set's storage, so the replaced set's resident bytes are
		// returned before the exchange materializes the new one — the peak
		// meter never holds both contig generations at once.
		local := make([]dbg.Contig, 0, len(sres.Local))
		for _, s := range sres.Local {
			local = append(local, dbg.Contig{Seq: s.Seq})
		}
		st.cset.Release(r)
		st.cset = dbg.DistributeContigs(r, local, dist.Distributed)
	}
}

// emitFinal produces the assembly's output: one rank-ordered emit onto rank
// 0, which sorts into the deterministic global order and renumbers. The
// scaffolds recorded the distributed set's internal IDs, so their member
// lists are remapped to the emitted numbering — Scaffold.ContigIDs must keep
// indexing Result.Contigs. Every other rank reports nil.
func emitFinal(r *pgas.Rank, st *rankState) {
	emitted := st.cset.Emit(r)
	if emitted == nil {
		return
	}
	order := make([]int, len(emitted))
	for i := range order {
		order[i] = i
	}
	sortContigOrder(emitted, order)
	idMap := make(map[int]int, len(emitted))
	sorted := make([]dbg.Contig, len(emitted))
	for newID, oldIdx := range order {
		c := emitted[oldIdx]
		idMap[c.ID] = newID
		c.ID = newID
		sorted[newID] = c
	}
	for _, s := range st.scaffold.Scaffolds {
		for i, id := range s.ContigIDs {
			s.ContigIDs[i] = idMap[id]
		}
	}
	st.emitted = sorted
	r.Compute(float64(len(sorted)))
}

// reportProgress delivers a stage-completion event to the Progress hook.
// Only rank 0 reports — the stage-end barrier it follows has synchronized
// every rank's clock, so rank 0's view is canonical — and the callback runs
// outside simulated time: nothing is charged, so an observed run stays
// bit-identical to an unobserved one.
func reportProgress(r *pgas.Rank, cfg Config, stage string, it, k int) {
	if cfg.Progress == nil || r.ID() != 0 {
		return
	}
	cfg.Progress(ProgressEvent{
		Stage:         stage,
		Iteration:     it,
		K:             k,
		SimSeconds:    r.Clock(),
		ResidentBytes: r.Resident(),
	})
}

// sortContigOrder sorts the index slice so that order[i] is the position in
// contigs of the i-th contig under the deterministic global contig ordering.
func sortContigOrder(contigs []dbg.Contig, order []int) {
	sort.Slice(order, func(i, j int) bool {
		return dbg.ContigLess(contigs[order[i]], contigs[order[j]])
	})
}

// localizePairs redistributes read pairs so that pairs aligned to contig c
// land on c's owner rank in the distributed contig set. It returns the
// rank's new reads, its new global read offset (pairs stay intact, so mate
// indices remain 2i / 2i+1), and the resident bytes the exchange charged
// for the received pairs — the caller releases them when the read set is
// next replaced.
func localizePairs(r *pgas.Rank, cset *dbg.ContigSet, reads []seq.Read, readOffset int, aligns []aligner.Alignment) ([]seq.Read, int, int) {
	// Destination per local pair, defaulting to the current rank.
	nPairs := len(reads) / 2
	dest := make([]int, nPairs)
	for i := range dest {
		dest[i] = r.ID()
	}
	for _, a := range aligns {
		li := a.ReadIdx - readOffset
		if li < 0 || li >= len(reads) {
			continue
		}
		pair := li / 2
		if pair < nPairs {
			owner, _ := dist.Locate(a.ContigID)
			dest[pair] = owner
		}
	}
	msgs := make([]pairMsg, nPairs)
	for i := 0; i < nPairs; i++ {
		msgs[i] = pairMsg{R1: reads[2*i], R2: reads[2*i+1], Dest: dest[i]}
	}
	// A trailing unpaired read (odd count) stays local.
	var tail []seq.Read
	if len(reads)%2 == 1 {
		tail = append(tail, reads[len(reads)-1])
	}
	incoming := pgas.ExchangeFunc(r, msgs,
		func(_ int, pm pairMsg) int { return pm.Dest }, pairMsg.WireSize)
	var newReads []seq.Read
	receivedBytes := 0
	for _, pm := range incoming {
		newReads = append(newReads, pm.R1, pm.R2)
		receivedBytes += pm.WireSize()
	}
	newReads = append(newReads, tail...)
	// The new global offset is the exclusive prefix sum of the per-rank
	// counts: one ExScan (log2 P rounds), not a P-word gather plus a loop.
	offset := pgas.ExScan(r, len(newReads), pgas.ReduceSum)
	return newReads, offset, receivedBytes
}

// pairMsg is one read pair shipped to its contig's owner rank during read
// localization.
type pairMsg struct {
	R1, R2 seq.Read
	Dest   int
}

// WireSize returns the wire bytes of one shipped pair.
func (pm pairMsg) WireSize() int { return pm.R1.WireSize() + pm.R2.WireSize() + 8 }
