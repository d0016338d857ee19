// Package serve implements assembly-as-a-service: a long-running multi-tenant
// HTTP job server over the virtual PGAS machine.
//
// Each submitted job describes one assembly (a JSON JobSpec: machine shape,
// k schedule, and either inline reads or a simulated-community recipe), runs
// on its own pgas machine inside a server-wide worker-slot budget, and is
// observable end to end: a priority admission queue with backpressure (429 +
// Retry-After when the queue is full), streamed per-stage progress events,
// cancellation wired through context to pgas.Machine.Abort, and flat per-job
// metrics suitable for CSV export. Co-tenancy never changes results: a job's
// FASTA and simulated seconds are bit-identical to a direct core.Assemble
// with the same configuration, which TestServeConcurrentJobsRace pins.
package serve

import (
	"fmt"
	"strings"

	"mhmgo/internal/core"
	"mhmgo/internal/fastx"
	"mhmgo/internal/seq"
	"mhmgo/internal/sim"
)

// Spec caps: admission control begins at the spec boundary. Every limit
// below bounds the resources a single job can claim before the worker
// budget is even consulted.
const (
	// MaxRanks caps the virtual machine size of one job.
	MaxRanks = 4096
	// MaxLibraries caps the paired-end libraries of one job.
	MaxLibraries = 16
	// MaxInlineReadBytes caps the total inline read text of one job.
	MaxInlineReadBytes = 16 << 20
	// MaxSimGenomes / MaxSimGenomeLen / MaxSimCoverage cap a simulated
	// community's shape; MaxSimBases caps the total sequenced bases
	// (genomes x genome length x coverage) so the three caps cannot be
	// combined into an unbounded job.
	MaxSimGenomes   = 64
	MaxSimGenomeLen = 1 << 20
	MaxSimCoverage  = 64
	MaxSimBases     = 1 << 28
)

// Priority classes. Interactive jobs dispatch before batch jobs regardless
// of arrival order; within a class the queue is FIFO.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// JobSpec is the JSON body of a job submission. Exactly one input source
// must be set: Libraries (inline read upload, one entry per paired-end
// library) or Sim (a server-side simulated community, the MGSim recipe).
type JobSpec struct {
	// ID names the job; the server generates "job-NNNNNN" when empty.
	// Submitting a duplicate ID is rejected with 409.
	ID string `json:"id,omitempty"`
	// Priority is "interactive" (the default) or "batch".
	Priority string `json:"priority,omitempty"`
	// Workers is the number of server worker slots the job requests — the
	// pgas worker-pool size its machine runs with (core.Config.Workers).
	// Defaults to 1; a request exceeding the server's total budget can
	// never be admitted and is rejected outright.
	Workers int `json:"workers,omitempty"`

	// Machine shape (core.Config.Ranks / RanksPerNode). Defaults: 8 / 4.
	Ranks        int `json:"ranks,omitempty"`
	RanksPerNode int `json:"ranks_per_node,omitempty"`

	// K schedule (core.Config.KMin/KMax/KStep); zero takes the core default.
	KMin  int `json:"kmin,omitempty"`
	KMax  int `json:"kmax,omitempty"`
	KStep int `json:"kstep,omitempty"`

	// MinContigLen drops contigs shorter than this from the final output.
	MinContigLen int `json:"min_contig_len,omitempty"`
	// NoScaffold stops after contig generation.
	NoScaffold bool `json:"no_scaffold,omitempty"`

	// QueueTimeoutMS overrides the server's queue-wait timeout for this job
	// (milliseconds; 0 means the server default).
	QueueTimeoutMS int `json:"queue_timeout_ms,omitempty"`

	// Libraries uploads reads inline: one entry per paired-end library, in
	// LibID order, each holding interleaved FASTQ/FASTA text.
	Libraries []LibrarySpec `json:"libraries,omitempty"`
	// Sim simulates the input server-side instead.
	Sim *SimSpec `json:"sim,omitempty"`
}

// LibrarySpec is one uploaded paired-end library.
type LibrarySpec struct {
	// Name labels the library (defaults to "libN").
	Name string `json:"name,omitempty"`
	// InsertSize and InsertStd describe the fragment geometry; zero takes
	// the assembler defaults.
	InsertSize int `json:"insert_size,omitempty"`
	InsertStd  int `json:"insert_std,omitempty"`
	// Reads is the library's interleaved paired-end FASTQ or FASTA text
	// (mates at record indices 2i and 2i+1). Every library must hold an
	// even number of reads: an odd count would misalign every later
	// library's pairs.
	Reads string `json:"reads"`
}

// SimSpec is a server-side simulated input: an MGSim community plus a
// WGSim-like read simulation, deterministic in Seed.
type SimSpec struct {
	Genomes   int     `json:"genomes,omitempty"`    // community size (default 8)
	GenomeLen int     `json:"genome_len,omitempty"` // mean genome length (default 20000)
	Coverage  float64 `json:"coverage,omitempty"`   // fold coverage (default 20)
	ReadLen   int     `json:"read_len,omitempty"`   // read length (default 100)
	// ErrorRate is the per-base substitution rate; zero means error-free.
	ErrorRate float64 `json:"error_rate,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// Libraries optionally simulates multiple paired-end libraries (insert
	// geometry + coverage share each); empty means one default library.
	Libraries []SimLibrarySpec `json:"libraries,omitempty"`
}

// SimLibrarySpec is one simulated library's geometry and coverage share.
type SimLibrarySpec struct {
	InsertSize int     `json:"insert_size,omitempty"`
	InsertStd  int     `json:"insert_std,omitempty"`
	Share      float64 `json:"share,omitempty"`
}

// SpecError is a structured job-spec validation failure: Field names the
// offending spec field (JSON name), Msg says what is wrong with it. The
// HTTP layer serializes it into the 400 response body.
type SpecError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

func (e *SpecError) Error() string { return fmt.Sprintf("spec field %q: %s", e.Field, e.Msg) }

// parseLibrary parses one library's interleaved FASTQ/FASTA text. A variable
// so a test can count the parses an entry point makes.
var parseLibrary = func(text string) ([]fastx.Record, error) {
	return fastx.ReadAll(strings.NewReader(text))
}

// DecodeSpec parses and validates a job-spec JSON document. Unknown fields
// and trailing garbage are rejected, so a typo'd field name is a structured
// 400 instead of a silently ignored knob. The returned spec is normalized:
// DecodeSpec(marshal(spec)) reproduces spec (and its core.ConfigHash)
// exactly.
func DecodeSpec(data []byte) (JobSpec, error) {
	s, err := decodeJSON(data)
	if err != nil {
		return JobSpec{}, err
	}
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}

// decodeJSON is the strict JSON half of DecodeSpec: no unknown fields, no
// trailing data, nothing normalized or validated yet.
func decodeJSON(data []byte) (JobSpec, error) {
	var s JobSpec
	if err := strictUnmarshal(data, &s); err != nil {
		return JobSpec{}, &SpecError{Field: "(json)", Msg: err.Error()}
	}
	return s, nil
}

// Normalized returns the spec with every default applied explicitly:
// priority, worker count, machine shape, and per-library names. Normalized
// is idempotent and is applied by DecodeSpec and Server.Submit, so the spec
// a job runs with is always the normalized one.
func (s JobSpec) Normalized() JobSpec {
	if s.Priority == "" {
		s.Priority = PriorityInteractive
	}
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.Ranks == 0 {
		s.Ranks = 8
	}
	if s.RanksPerNode == 0 {
		if s.Ranks > 0 && s.Ranks%4 == 0 {
			s.RanksPerNode = 4
		} else {
			s.RanksPerNode = s.Ranks
		}
	}
	if len(s.Libraries) > 0 {
		libs := append([]LibrarySpec(nil), s.Libraries...)
		for i := range libs {
			if libs[i].Name == "" {
				libs[i].Name = fmt.Sprintf("lib%d", i)
			}
		}
		s.Libraries = libs
	}
	return s
}

// Validate checks the (normalized) spec against the admission caps and
// structural rules. Every failure is a *SpecError naming the field, which
// the HTTP layer returns as a structured 400.
func (s JobSpec) Validate() error {
	if s.Priority != PriorityInteractive && s.Priority != PriorityBatch {
		return &SpecError{Field: "priority", Msg: fmt.Sprintf("must be %q or %q, got %q", PriorityInteractive, PriorityBatch, s.Priority)}
	}
	if s.Workers < 1 {
		return &SpecError{Field: "workers", Msg: fmt.Sprintf("must be >= 1, got %d", s.Workers)}
	}
	if s.Ranks < 1 || s.Ranks > MaxRanks {
		return &SpecError{Field: "ranks", Msg: fmt.Sprintf("must be in [1, %d], got %d", MaxRanks, s.Ranks)}
	}
	if s.RanksPerNode < 1 || s.Ranks%s.RanksPerNode != 0 {
		return &SpecError{Field: "ranks_per_node", Msg: fmt.Sprintf("%d must be >= 1 and divide ranks (%d)", s.RanksPerNode, s.Ranks)}
	}
	if s.KMin < 0 {
		return &SpecError{Field: "kmin", Msg: fmt.Sprintf("must be >= 0, got %d", s.KMin)}
	}
	if s.KMax < 0 {
		return &SpecError{Field: "kmax", Msg: fmt.Sprintf("must be >= 0, got %d", s.KMax)}
	}
	if s.KStep < 0 {
		return &SpecError{Field: "kstep", Msg: fmt.Sprintf("must be >= 0, got %d", s.KStep)}
	}
	if s.KMin > seq.MaxK {
		return &SpecError{Field: "kmin", Msg: fmt.Sprintf("must be <= %d, got %d", seq.MaxK, s.KMin)}
	}
	if s.MinContigLen < 0 {
		return &SpecError{Field: "min_contig_len", Msg: "must be >= 0"}
	}
	if s.QueueTimeoutMS < 0 {
		return &SpecError{Field: "queue_timeout_ms", Msg: "must be >= 0"}
	}
	// The k schedule must produce at least one k value (core would reject
	// the run anyway; catching it here makes it a 400 instead of a failed
	// job).
	cfg := core.Config{KMin: s.KMin, KMax: s.KMax, KStep: s.KStep}
	if len(cfg.KValues()) == 0 {
		return &SpecError{Field: "kmax", Msg: fmt.Sprintf("k schedule [%d, %d] step %d yields no valid odd k <= %d", s.KMin, s.KMax, s.KStep, seq.MaxK)}
	}
	switch {
	case s.Sim != nil && len(s.Libraries) > 0:
		return &SpecError{Field: "sim", Msg: "set either inline libraries or sim, not both"}
	case s.Sim == nil && len(s.Libraries) == 0:
		return &SpecError{Field: "libraries", Msg: "no input: set inline libraries or sim"}
	}
	if s.Sim != nil {
		return s.Sim.validate()
	}
	if len(s.Libraries) > MaxLibraries {
		return &SpecError{Field: "libraries", Msg: fmt.Sprintf("%d libraries exceed the cap of %d", len(s.Libraries), MaxLibraries)}
	}
	total := 0
	for i, lib := range s.Libraries {
		field := fmt.Sprintf("libraries[%d]", i)
		if lib.InsertSize < 0 || lib.InsertStd < 0 {
			return &SpecError{Field: field + ".insert_size", Msg: "insert geometry must be >= 0"}
		}
		if lib.Reads == "" {
			return &SpecError{Field: field + ".reads", Msg: "library holds no reads"}
		}
		total += len(lib.Reads)
		if total > MaxInlineReadBytes {
			return &SpecError{Field: field + ".reads", Msg: fmt.Sprintf("inline reads exceed the %d-byte cap", MaxInlineReadBytes)}
		}
		// Parse now so malformed read text is a structured 400 at submit,
		// not a failed job minutes later. The parsed records are discarded;
		// BuildReads re-parses at run time (the text is capped, and keeping
		// the queue free of decoded reads bounds queued-job memory).
		recs, err := parseLibrary(lib.Reads)
		if err != nil {
			return &SpecError{Field: field + ".reads", Msg: err.Error()}
		}
		if len(recs) == 0 {
			return &SpecError{Field: field + ".reads", Msg: "library holds no reads"}
		}
		if len(recs)%2 != 0 {
			return &SpecError{Field: field + ".reads", Msg: fmt.Sprintf("%d reads (odd): libraries must hold whole interleaved pairs", len(recs))}
		}
	}
	return nil
}

func (s *SimSpec) validate() error {
	if s.Genomes < 0 || s.Genomes > MaxSimGenomes {
		return &SpecError{Field: "sim.genomes", Msg: fmt.Sprintf("must be in [0, %d], got %d", MaxSimGenomes, s.Genomes)}
	}
	if s.GenomeLen < 0 || s.GenomeLen > MaxSimGenomeLen {
		return &SpecError{Field: "sim.genome_len", Msg: fmt.Sprintf("must be in [0, %d], got %d", MaxSimGenomeLen, s.GenomeLen)}
	}
	if s.Coverage < 0 || s.Coverage > MaxSimCoverage {
		return &SpecError{Field: "sim.coverage", Msg: fmt.Sprintf("must be in [0, %d], got %g", MaxSimCoverage, s.Coverage)}
	}
	if s.ReadLen < 0 {
		return &SpecError{Field: "sim.read_len", Msg: "must be >= 0"}
	}
	if s.ErrorRate < 0 || s.ErrorRate > 0.5 {
		return &SpecError{Field: "sim.error_rate", Msg: fmt.Sprintf("must be in [0, 0.5], got %g", s.ErrorRate)}
	}
	if len(s.Libraries) > MaxLibraries {
		return &SpecError{Field: "sim.libraries", Msg: fmt.Sprintf("%d libraries exceed the cap of %d", len(s.Libraries), MaxLibraries)}
	}
	for i, lib := range s.Libraries {
		if lib.InsertSize < 0 || lib.InsertStd < 0 || lib.Share < 0 {
			return &SpecError{Field: fmt.Sprintf("sim.libraries[%d]", i), Msg: "insert geometry and share must be >= 0"}
		}
	}
	// The combined budget check uses the effective (defaulted) values, so
	// leaving fields unset cannot dodge the cap.
	g, l, cov := s.Genomes, s.GenomeLen, s.Coverage
	if g == 0 {
		g = sim.DefaultCommunityConfig().NumGenomes
	}
	if l == 0 {
		l = sim.DefaultCommunityConfig().MeanGenomeLen
	}
	if cov == 0 {
		cov = sim.DefaultReadConfig().Coverage
	}
	if bases := float64(g) * float64(l) * cov; bases > MaxSimBases {
		return &SpecError{Field: "sim", Msg: fmt.Sprintf("genomes x genome_len x coverage = %.0f sequenced bases exceeds the %d cap", bases, MaxSimBases)}
	}
	return nil
}

// readConfig translates the sim spec into the simulator's configuration.
func (s *SimSpec) readConfig() sim.ReadConfig {
	rc := sim.ReadConfig{
		ReadLen:   s.ReadLen,
		ErrorRate: s.ErrorRate,
		Coverage:  s.Coverage,
		Seed:      s.Seed,
	}
	for _, lib := range s.Libraries {
		rc.Libraries = append(rc.Libraries, sim.LibraryConfig{
			InsertSize:    lib.InsertSize,
			InsertStd:     lib.InsertStd,
			CoverageShare: lib.Share,
		})
	}
	return rc
}

// config builds the assembly configuration the job will run with. It is a
// pure function of the (normalized, validated) spec — deterministic, cheap,
// and read-free — so two decodes of the same spec JSON always produce the
// same configuration hash.
func (s JobSpec) config() core.Config {
	cfg := core.DefaultConfig(s.Ranks)
	cfg.RanksPerNode = s.RanksPerNode
	cfg.Workers = s.Workers
	if s.KMin > 0 {
		cfg.KMin = s.KMin
	}
	if s.KMax > 0 {
		cfg.KMax = s.KMax
	}
	if s.KStep > 0 {
		cfg.KStep = s.KStep
	}
	cfg.Scaffolding = !s.NoScaffold
	cfg.MinContigLen = s.MinContigLen

	var libs []seq.Library
	if s.Sim != nil {
		rc := s.Sim.readConfig().Normalized()
		if len(rc.Libraries) == 0 {
			libs = []seq.Library{{Name: "lib0", ReadLen: rc.ReadLen, InsertSize: rc.InsertSize, InsertStd: rc.InsertStd}}
		} else {
			for _, lc := range rc.Libraries {
				libs = append(libs, seq.Library{Name: lc.Name, ReadLen: lc.ReadLen, InsertSize: lc.InsertSize, InsertStd: lc.InsertStd})
			}
		}
	} else {
		for _, ls := range s.Libraries {
			libs = append(libs, seq.Library{Name: ls.Name, InsertSize: ls.InsertSize, InsertStd: ls.InsertStd})
		}
	}
	cfg.Libraries = libs
	return cfg
}

// BuildReads materializes the job's input reads: simulated (deterministic in
// the seed) or decoded from the inline library text. Called at dispatch
// time, not submit time, so queued jobs hold only their spec.
func (s JobSpec) BuildReads() ([]seq.Read, error) {
	if s.Sim != nil {
		cc := sim.DefaultCommunityConfig()
		if s.Sim.Genomes > 0 {
			cc.NumGenomes = s.Sim.Genomes
		}
		if s.Sim.GenomeLen > 0 {
			cc.MeanGenomeLen = s.Sim.GenomeLen
		}
		cc.Seed = s.Sim.Seed + 1
		community := sim.GenerateCommunity(cc)
		return sim.SimulateReads(community, s.Sim.readConfig()), nil
	}
	var reads []seq.Read
	for i, lib := range s.Libraries {
		recs, err := parseLibrary(lib.Reads)
		if err != nil {
			return nil, &SpecError{Field: fmt.Sprintf("libraries[%d].reads", i), Msg: err.Error()}
		}
		for _, rec := range recs {
			r := rec.ToRead()
			r.LibID = uint8(i)
			reads = append(reads, r)
		}
	}
	if len(reads) == 0 {
		return nil, &SpecError{Field: "libraries", Msg: "no reads decoded"}
	}
	return reads, nil
}
