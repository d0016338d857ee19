// Package core implements the end-to-end MetaHipMer pipeline (Algorithm 1 +
// Algorithm 3 of the paper): iterative contig generation over a range of
// k-mer sizes followed by metagenome-aware scaffolding, executed SPMD-style
// on a virtual PGAS machine.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
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
	// Workers is the number of worker goroutines that run the simulated
	// ranks, each a block of them (see pgas.Config.Workers). It is an
	// execution knob, not a simulation parameter: results, simulated time,
	// and checkpoint identity (configHash) are independent of it, so a run
	// checkpointed under one worker count can resume under another.
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

	// Progress, when non-nil, receives the record of every completed pipeline
	// step (the same records Result.Steps returns) — scaffolding is one step,
	// so it reports once however many library rounds it ran — from rank 0's
	// goroutine immediately after the step-end barrier. The callback runs
	// outside simulated time — it charges nothing and cannot perturb
	// results — but it executes synchronously on the SPMD critical path, so
	// it should return quickly (hand the event to a channel or buffer, don't
	// block on I/O).
	// Progress is an observation hook, not a simulation parameter: it is
	// excluded from the checkpoint configuration hash.
	Progress func(ProgressEvent)

	// Fault injection (testing). FailAfterStage kills the run (Assemble
	// returns ErrFaultInjected) immediately after the named stage of
	// iteration FailAtIteration completed and its checkpoint was written; a
	// pair that names no step of the run's schedule is refused up front.
	// FailAtBarrier > 0 kills the run abruptly in the middle of rank 0's n-th
	// barrier entry on the host (the count Result.HostBarriers reports, the
	// unpriced barriers inside AllReduce and ExScan included) —
	// mid-collective, the worst possible moment. Neither knob participates in
	// the configuration hash: a resume with the fault cleared must still match
	// the killed run's identity.
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

// ProgressEvent is the record of one completed pipeline step: the one
// representation of per-step timing, delivered to Config.Progress as the step
// ends, returned in order as Result.Steps, carried in rank 0's checkpoint
// shard and embedded in the server's event stream. Seconds, SimSeconds and
// ResidentBytes are rank 0's view at the step-end barrier (the clock is
// identical on every rank there); the traffic columns are machine-wide.
type ProgressEvent struct {
	// Stage is the completed stage's name (the Stage* constants).
	Stage string `json:"stage,omitempty"`
	// Iteration is the k-iteration index the stage ran in; K its k-mer size.
	// Scaffolding reports the final iteration.
	Iteration int `json:"iteration,omitempty"`
	K         int `json:"k,omitempty"`
	// Seconds is the step's simulated duration, measured between the
	// barriers that open and close its window.
	Seconds float64 `json:"seconds,omitempty"`
	// SimSeconds is the simulated clock at the step boundary.
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// ResidentBytes is rank 0's resident collective-payload meter at the
	// boundary (see pgas.CommStats.PeakResidentBytes for the run-wide peak).
	ResidentBytes uint64 `json:"resident_bytes,omitempty"`
	// The step's traffic: the pgas.CommStats counters of the same names,
	// summed over every rank, counted from the barrier that opens the step's
	// window (excluded) to the one that closes it (included).
	Messages        uint64 `json:"messages,omitempty"`
	OffNodeMessages uint64 `json:"off_node_messages,omitempty"`
	BytesSent       uint64 `json:"bytes_sent,omitempty"`
	OffNodeBytes    uint64 `json:"off_node_bytes,omitempty"`
	RemoteGets      uint64 `json:"remote_gets,omitempty"`
	Barriers        uint64 `json:"barriers,omitempty"`
	// BarrierWait is the simulated seconds a rank spent waiting in the
	// step's barriers (pgas.CommStats.BarrierWaitNs), over the same window
	// and averaged over the ranks: the part of Seconds the step's imbalance
	// costs.
	BarrierWait float64 `json:"barrier_wait,omitempty"`
}

// StageTime is one stage's simulated seconds summed over its steps.
type StageTime struct {
	Name    string
	Seconds float64
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
	// Steps records every completed pipeline step in schedule order, a
	// resumed run's included: the steps before the resume point come from
	// the checkpoint. Stages views it as per-stage totals.
	Steps []ProgressEvent
	// Stats aggregates communication statistics over all ranks.
	Stats pgas.CommStats
	// HostBarriers is the number of barriers rank 0 arrived at on the host,
	// in the part of the run this process executed: those Stats counts and
	// the unpriced ones inside AllReduce and ExScan. It is the count
	// Config.FailAtBarrier counts.
	HostBarriers uint64
	// Per-stage substatistics.
	TotalReads      int
	AlignedReadFrac float64
	ContigStats     seq.LengthStats
	ScaffoldStats   seq.LengthStats
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

// Stages returns the simulated seconds per pipeline stage — a stage that runs
// once per k sums its iterations — longest first, ties in schedule order.
func (r *Result) Stages() []StageTime {
	var out []StageTime
	for _, ev := range r.Steps {
		i := slices.IndexFunc(out, func(st StageTime) bool { return st.Name == ev.Stage })
		if i < 0 {
			i = len(out)
			out = append(out, StageTime{Name: ev.Stage})
		}
		out[i].Seconds += ev.Seconds
	}
	slices.SortStableFunc(out, func(a, b StageTime) int { return cmp.Compare(b.Seconds, a.Seconds) })
	return out
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
// machine's workers return, no goroutines leak, and checkpoints written
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
		w, err := newCkptWriter(cfg.CheckpointDir, cfg.Ranks, man, cfg.ResumeFrom, ck.resume)
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
	res.Steps = out.steps
	res.Stats = runRes.Stats
	res.HostBarriers = runRes.HostBarriers

	res.Contigs = out.emitted
	res.Scaffolds = out.scaffolds
	res.ScaffoldRounds = out.rounds
	res.AlignedReadFrac = out.alignedFrac
	res.ContigStats = lengthStats(res.Contigs)
	res.ScaffoldStats = lengthStats(res.Scaffolds)
	return res, nil
}

// lengthStats summarizes the lengths of a contig or scaffold list.
func lengthStats[T interface{ Len() int }](xs []T) seq.LengthStats {
	lengths := make([]int, len(xs))
	for i, x := range xs {
		lengths[i] = x.Len()
	}
	return seq.SummarizeLengths(lengths)
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

// localizes reports whether the reads are redistributed by the contigs they
// aligned to at the end of iteration it (Section II-I): after every iteration
// but the last.
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
		// Initial block distribution of the reads, in whole pairs. No read
		// shard holds them yet: readsHash starts empty.
		lo, hi := r.PairBlockRange(len(allReads))
		st = &rankState{reads: allReads[lo:hi], readOffset: lo}
	}
	st.totalReads = len(allReads)
	nIter := len(ks)

	// step runs stage si of iteration it and reports whether the injected
	// fault fires at its boundary. Steps the schedule omits, and steps at or
	// before the resume point — their effects live in the restored state —
	// are skipped. It is the only code that times a step: a barrier on each
	// side of the body makes the measured duration identical on every rank,
	// the machine-wide statistics both barriers sum give the step's traffic,
	// and rank 0 appends the step's record to its state (so the checkpoint
	// carries it) before handing it to the Progress hook, outside simulated
	// time. The checkpoint deposit sits between the step-end barrier and the
	// next collective and uses only out-of-band Go synchronization:
	// checkpoint I/O must never advance the simulated clocks, or a
	// checkpointed run would diverge from an uncheckpointed one.
	step := func(it, si int) bool {
		sg := &stages[si]
		if !sg.scheduled(cfg, it, nIter) || ck.done(it, si) {
			return false
		}
		k := ks[it]
		s0 := r.BarrierStats()
		t0 := r.Clock()
		sg.run(r, cfg, k, st)
		s1 := r.BarrierStats()
		if r.ID() == 0 {
			ev := ProgressEvent{Stage: sg.name, Iteration: it, K: k,
				Seconds: r.Clock() - t0, SimSeconds: r.Clock(), ResidentBytes: r.Resident(),
				Messages: s1.Messages - s0.Messages, OffNodeMessages: s1.OffNodeMessages - s0.OffNodeMessages,
				BytesSent: s1.BytesSent - s0.BytesSent, OffNodeBytes: s1.OffNodeBytes - s0.OffNodeBytes,
				RemoteGets: s1.RemoteGets - s0.RemoteGets, Barriers: s1.Barriers - s0.Barriers,
				BarrierWait: float64(s1.BarrierWaitNs-s0.BarrierWaitNs) / 1e9 / float64(r.NRanks())}
			st.steps = append(st.steps, ev)
			if cfg.Progress != nil {
				cfg.Progress(ev)
			}
		}
		if ck.writer != nil {
			ck.writer.putReads(st)
			alignsLive := sg.alignsLive != nil && sg.alignsLive(cfg, it, nIter)
			ck.writer.record(r.ID(), it, sg.name, k, encodeRankState(st.atBoundary(r, it, si, alignsLive)))
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
		// pairs aligned to one contig sit together, in contig order, in even
		// blocks over the ranks. A resume into the next iteration carries the
		// localized reads in its restored state; a resume at this iteration's
		// last stage replays the exchange deterministically from the restored
		// alignments.
		if localizes(cfg, it, nIter) && !ck.done(it+1, 0) { // 0: the next iteration's first step
			// The previous round's shipped reads are superseded by this
			// exchange: return their resident charge before re-charging.
			r.ReleaseResident(st.shippedReadBytes)
			st.reads, st.readOffset, st.shippedReadBytes = localizePairs(r, st.reads, st.readOffset, st.totalReads/2, st.aligns)
			st.readsHash = "" // a new read set: the next boundary writes its shard
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
	st.kmers = kmeranalysis.Run(r, st.reads, kopts, nil).Counts
}

// runKmerMerge merges the previous iteration's contig k-mers (Section II-H)
// so low-coverage organisms keep their assembled regions. Each rank merges
// the pieces of the contigs it is dealt, not its own shard, so the rank that
// owns a long contig does not walk it alone.
func runKmerMerge(r *pgas.Rank, cfg Config, k int, st *rankState) {
	kmeranalysis.MergeContigKmers(r, st.kmers, dbg.DealPieces(r, st.cset, k), k, cfg.MinKmerCount+1)
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
	// The pass aligns every read, and every rank knows how many there are,
	// so only the aligned count is reduced.
	alignedAll := pgas.AllReduce(r, int64(astats.ReadsAligned), pgas.ReduceSum)
	st.alignedFrac = float64(alignedAll) / float64(st.totalReads)
}

// runLocalAssembly extends contigs by mer-walking with work sharing; the
// extensions are applied owner-side in place.
func runLocalAssembly(r *pgas.Rank, cfg Config, k int, st *rankState) {
	lopts := localasm.DefaultOptions(k)
	lopts.WorkStealing = cfg.WorkStealing
	lopts.Libraries = cfg.Libraries
	localasm.Run(r, st.cset, st.reads, st.readOffset, st.aligns, lopts)
}

// runScaffolding is Algorithm 3, one round per library in ascending
// insert-size order. Each round aligns its own library's reads (by the LibID
// tag) against the current contig set; an intermediate round's scaffolds are
// spliced back in as the next round's contigs (content-hash deduplicated,
// canonically owned), so longer-insert libraries link the structures the
// shorter ones built. With one library the loop degenerates to exactly the
// legacy single-round flow.
func runScaffolding(r *pgas.Rank, cfg Config, k int, st *rankState) {
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
		if last {
			// The final round's scaffolds are the assembly's output.
			st.scaffolds = sres.Scaffolds
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
	for _, s := range st.scaffolds {
		for i, id := range s.ContigIDs {
			s.ContigIDs[i] = idMap[id]
		}
	}
	st.emitted = sorted
	r.Compute(float64(len(sorted)))
}

// sortContigOrder sorts the index slice so that order[i] is the position in
// contigs of the i-th contig under the deterministic global contig ordering.
func sortContigOrder(contigs []dbg.Contig, order []int) {
	sort.Slice(order, func(i, j int) bool {
		return dbg.ContigLess(contigs[order[i]], contigs[order[j]])
	})
}

// unaligned is the contig key of a pair with no aligned mate: it sorts after
// every contig ID.
const unaligned = math.MaxInt

// localizePairs redistributes read pairs so that pairs aligned to one contig
// sit together (Section II-I) without piling them onto the contig's owner.
// Every pair gets a global slot in (contig ID, source rank, local index)
// order and lands on rank slot / ceil(pairs/P), so no rank holds more than
// its block. A pair follows the contig its last aligned mate hit. A rank's
// unaligned pairs are a pseudo-contig it owns itself, sorting after its real
// contigs. Owner-naming IDs sort owner-major, so the order is owner by owner:
// one count exchange to the contigs' owners, one ExScan over the owners'
// totals and one reply exchange number every (contig, source) run. The blocks
// are sized by totalPairs, the run's pair count, which every rank knows from
// the input: the ranks hold whole pairs, but for the last rank's trailing
// unpaired read.
//
// It returns the rank's new reads in slot order, its new global read offset
// (pairs stay intact, so mate indices remain 2i / 2i+1), and the resident
// bytes the exchange charged for the received pairs — the caller releases
// them when the read set is next replaced.
func localizePairs(r *pgas.Rank, reads []seq.Read, readOffset, totalPairs int, aligns []aligner.Alignment) ([]seq.Read, int, int) {
	nPairs := len(reads) / 2
	contig := make([]int, nPairs)
	for i := range contig {
		contig[i] = unaligned
	}
	for _, a := range aligns {
		if pair := (a.ReadIdx - readOffset) / 2; a.ReadIdx >= readOffset && pair < nPairs {
			contig[pair] = a.ContigID
		}
	}
	// The rank's pairs in (contig, local index) order, cut into one run per
	// aligned contig; the unaligned pairs come last.
	order := make([]int, nPairs)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(contig[a], contig[b]) })
	r.Compute(float64(nPairs))
	var runs []contigRun
	nUnaligned := 0
	for k, i := range order {
		switch {
		case contig[i] == unaligned:
			nUnaligned++
		case k > 0 && contig[i] == contig[order[k-1]]:
			runs[len(runs)-1].N++
		default:
			runs = append(runs, contigRun{Contig: contig[i], Src: r.ID(), N: 1})
		}
	}

	// Owner side: number the received runs in (contig, source) order, then
	// the rank's own unaligned pairs, and offset them by the owners before.
	owned := dist.Exchange(r, runs, func(c contigRun) int { owner, _ := dist.Locate(c.Contig); return owner }, contigRun.WireSize)
	slices.SortFunc(owned, func(a, b contigRun) int { return cmp.Or(cmp.Compare(a.Contig, b.Contig), cmp.Compare(a.Src, b.Src)) })
	nOwned := 0
	for i := range owned {
		owned[i].N, nOwned = nOwned, nOwned+owned[i].N
	}
	base := pgas.ExScan(r, nOwned+nUnaligned, pgas.ReduceSum)
	for i := range owned {
		owned[i].N += base
	}
	// The replies arrive in owner order, each owner's in contig order: that
	// is contig order, the order runs was built in, so reply j answers run j.
	firsts := dist.Exchange(r, owned, func(c contigRun) int { return c.Src }, contigRun.WireSize)
	block := max(1, (totalPairs+r.NRanks()-1)/r.NRanks())

	msgs := make([]pairMsg, 0, nPairs)
	slot, run := 0, -1
	for k, i := range order {
		if k == 0 || contig[i] != contig[order[k-1]] {
			if contig[i] == unaligned {
				slot = base + nOwned
			} else {
				run++
				slot = firsts[run].N
			}
		}
		msgs = append(msgs, pairMsg{R1: reads[2*i], R2: reads[2*i+1], Slot: slot})
		slot++
	}
	incoming := pgas.ExchangeFunc(r, msgs,
		func(_ int, pm pairMsg) int { return pm.Slot / block }, pairMsg.WireSize)
	slices.SortFunc(incoming, func(a, b pairMsg) int { return a.Slot - b.Slot })
	r.Compute(float64(len(incoming)))
	newReads := make([]seq.Read, 0, 2*len(incoming)+len(reads)%2)
	receivedBytes := 0
	for _, pm := range incoming {
		newReads = append(newReads, pm.R1, pm.R2)
		receivedBytes += pm.WireSize()
	}
	// A trailing unpaired read (odd count) stays local. The initial pair
	// distribution puts it on the last rank and it never moves, so the ranks
	// before hold whole blocks and the offset needs no collective.
	if len(reads)%2 == 1 {
		newReads = append(newReads, reads[len(reads)-1])
	}
	return newReads, 2 * min(r.ID()*block, totalPairs), receivedBytes
}

// pairMsg is one read pair shipped during read localization. Slot is the
// pair's position in the global (contig, source rank, local index) order; it
// names the destination rank and orders the pairs there.
type pairMsg struct {
	R1, R2 seq.Read
	Slot   int
}

// WireSize returns the wire bytes of one shipped pair.
func (pm pairMsg) WireSize() int { return pm.R1.WireSize() + pm.R2.WireSize() + 8 }

// contigRun is one source rank's run of pairs aligned to one contig, the
// record of read localization's slot numbering. On its way to the contig's
// owner N is the run's pair count; on its way back it is the global slot of
// the run's first pair.
type contigRun struct {
	Contig, Src, N int
}

// WireSize returns the wire bytes of one run record.
func (contigRun) WireSize() int { return 24 }
