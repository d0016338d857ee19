package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"mhmgo/internal/checkpoint"
	"mhmgo/internal/eval"
	"mhmgo/internal/fastx"
	"mhmgo/internal/sim"
)

const (
	// setupReps is how often set-up runs; setup_s is the median.
	setupReps = 5
	// batchPool is how many distinct inputs (mock communities) a batch
	// workload assembles in a run. Repetitions cycle through them and every
	// run covers the pool, so the exact metrics are means over the same
	// inputs however many repetitions the window fits; one assembly's
	// simulated time depends too much on where its contigs happen to hash to.
	batchPool = 3
	// Quality floors of the output check: an optimisation that breaks the
	// assembly must fail the run, not just move a metric.
	minGenomeFraction = 0.5
	maxMisassemblies  = 5
)

// outcome is one completed operation: an assembly from input files to the
// FASTA a user gets, with what it cost on both clocks.
type outcome struct {
	input       int // pool entry
	wallS, cpuS float64
	simS        float64
	head        string // checkpoint manifest head, when checkpointing
	fastaSHA    string
	quality     eval.Report
	// The child results behind the operation (kill + resume on the resume
	// workload, one otherwise), for the traced run's per-layer numbers.
	parts []childResult
}

// batchInput is one pool entry: an input, its files, and the first outcome
// over it, which every later assembly of the same input must reproduce.
type batchInput struct {
	input
	files []string
	first *outcome
}

// batchRun is the per-invocation state of a batch workload.
type batchRun struct {
	ctx  context.Context
	w    workload
	dir  string
	pool []batchInput
	rec  *record
	tr   *tracer
	root int // root span
}

// job describes one child assembly over pool entry p.
func (b *batchRun) job(p int, out string) childJob {
	return childJob{Reads: b.pool[p].files, Libs: b.w.libs, Ranks: b.w.ranks, RanksPerNode: b.w.ranksPerNode,
		Out: filepath.Join(b.dir, out)}
}

// operation runs one assembly of pool entry p the way the workload defines
// it, loads its output and applies the output checks. traced installs the
// progress hook in the child.
func (b *batchRun) operation(name string, p int, traced bool) (outcome, error) {
	o := outcome{input: p}
	job := b.job(p, name+".fasta")
	job.Trace = traced
	run := func(j childJob) error {
		res, err := runChild(b.ctx, b.dir, j)
		if err != nil {
			return err
		}
		o.parts = append(o.parts, res)
		o.wallS += res.WallS
		o.cpuS += res.CPUS
		return nil
	}
	if b.w.resume {
		ckpt := filepath.Join(b.dir, name+".ckpt")
		if err := os.RemoveAll(ckpt); err != nil {
			return o, err
		}
		kill := job
		kill.CheckpointDir, kill.FailAfterStage, kill.FailAtIteration = ckpt, "alignment", 1
		if err := run(kill); err != nil {
			return o, err
		}
		if !o.parts[0].Killed {
			return o, fmt.Errorf("the injected fault did not fire")
		}
		job.CheckpointDir, job.ResumeFrom = ckpt, ckpt
	}
	if err := run(job); err != nil {
		return o, err
	}
	last := o.parts[len(o.parts)-1]
	o.simS, o.head = last.SimS, last.ManifestHead
	sha, seqs, err := loadFASTA(job.Out)
	if err != nil {
		return o, err
	}
	o.fastaSHA = sha
	if o.quality, err = checkAssembly(seqs, b.pool[p].comm); err != nil {
		return o, err
	}
	if first := b.pool[p].first; first != nil {
		return o, sameOutput(*first, o)
	}
	b.pool[p].first = &o
	return o, nil
}

// loadFASTA reads an assembly back the way a downstream tool would.
func loadFASTA(path string) (sha string, seqs [][]byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	if sha, seqs, err = parseFASTA(data); err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return sha, seqs, err
}

// parseFASTA hashes FASTA text and returns its sequences.
func parseFASTA(data []byte) (sha string, seqs [][]byte, err error) {
	recs, err := fastx.ReadAll(bytes.NewReader(data))
	if err != nil {
		return "", nil, err
	}
	for _, r := range recs {
		seqs = append(seqs, r.Seq)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), seqs, nil
}

func onlyACGTN(seqs [][]byte) error {
	for i, s := range seqs {
		if rest := bytes.Trim(s, "ACGTN"); len(rest) > 0 {
			return fmt.Errorf("sequence %d holds byte %q", i, rest[0])
		}
	}
	return nil
}

// checkAssembly applies the per-output checks and returns the quality
// report: bases are ACGTN only, and the assembly clears the quality floors.
func checkAssembly(seqs [][]byte, comm *sim.Community) (eval.Report, error) {
	if err := onlyACGTN(seqs); err != nil {
		return eval.Report{}, err
	}
	rep := eval.Evaluate("benchmark", seqs, comm, eval.DefaultOptions())
	if rep.GenomeFraction < minGenomeFraction {
		return rep, fmt.Errorf("genome fraction %.3f below the floor %.2f", rep.GenomeFraction, minGenomeFraction)
	}
	if rep.Misassemblies > maxMisassemblies {
		return rep, fmt.Errorf("%d misassemblies above the ceiling %d", rep.Misassemblies, maxMisassemblies)
	}
	return rep, nil
}

// sameOutput is the repeatability check: every assembly of the same input
// must give the same FASTA bytes, bit-equal simulated seconds and (when
// checkpointing) the same manifest head.
func sameOutput(want, got outcome) error {
	switch {
	case want.fastaSHA != got.fastaSHA:
		return fmt.Errorf("FASTA sha256 %.12s differs from the first assembly's %.12s", got.fastaSHA, want.fastaSHA)
	case math.Float64bits(want.simS) != math.Float64bits(got.simS):
		return fmt.Errorf("sim_s %v differs from the first assembly's %v", got.simS, want.simS)
	case want.head != got.head:
		return fmt.Errorf("manifest head %.12s differs from the first assembly's %.12s", got.head, want.head)
	}
	return nil
}

// runBatch measures one batch workload. With tracing off it repeats the
// operation over the input pool for the given time and reports the end-to-end
// metrics; with tracing on it runs one untraced and one traced operation on
// the first input, the layer chain and the probes, and reports the per-layer
// metrics.
func runBatch(ctx context.Context, w workload, seed int64, seconds int, traced bool, rec *record, tr *tracer) error {
	dir, err := os.MkdirTemp(outDir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &batchRun{ctx: ctx, w: w, dir: dir, rec: rec, tr: tr, pool: make([]batchInput, batchPool)}
	b.root = tr.begin(0, 0, "run:"+w.name)
	defer tr.end(b.root)

	var setup []float64
	setupSpan := tr.begin(b.root, 0, "setup")
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for p := range b.pool {
			in := makeInput(w, p, seed)
			files, err := in.writeFASTQ(dir, fmt.Sprintf("input%d", p), len(w.libs))
			if err != nil {
				return err
			}
			b.pool[p] = batchInput{input: in, files: files}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	tr.end(setupSpan)

	// attempt runs one operation; a failed attempt is counted and the run
	// goes on.
	var ops []outcome
	attempt := func(name string, p int, hook bool) {
		rec.Attempted++
		o, err := b.operation(name, p, hook)
		if err != nil {
			rec.fail("%s (input %d): %v", name, p, err)
			return
		}
		ops = append(ops, o)
	}

	if traced {
		attempt("untraced", 0, false)
		attempt("traced", 0, true)
		if len(ops) < 2 {
			return nil
		}
	} else {
		start := time.Now()
		for i := 0; ; i++ {
			t0 := time.Now()
			attempt(fmt.Sprintf("rep%d", i), i%batchPool, false)
			// Cover the pool, then start another repetition only if it would
			// end inside the window.
			elapsed, last := time.Since(start), time.Since(t0)
			if i+1 >= batchPool && elapsed+last > time.Duration(seconds)*time.Second {
				break
			}
		}
		if rec.Failed > 0 {
			return nil
		}
	}

	// whole is a child that ran the pipeline on the first input start to end.
	whole := ops[0].parts[0]
	if w.resume {
		// The resumed output must equal an uninterrupted checkpointed run's.
		ref := b.job(0, "uninterrupted.fasta")
		ref.CheckpointDir = filepath.Join(dir, "uninterrupted.ckpt")
		if whole, err = runChild(ctx, dir, ref); err != nil {
			return err
		}
		o := outcome{simS: whole.SimS, head: whole.ManifestHead}
		if o.fastaSHA, _, err = loadFASTA(ref.Out); err != nil {
			return err
		}
		if err := sameOutput(o, *b.pool[0].first); err != nil {
			rec.invalidate("resumed against uninterrupted: %v", err)
		}
	}

	if traced {
		return b.perLayer(ops[0], ops[1], whole)
	}
	// Every metric is a mean over the pool, so that it covers the same
	// assemblies on every run; an input assembled more than once contributes
	// the median of its repetitions.
	var all, wall, cpu, simS, gf, len1k []float64
	for p, in := range b.pool {
		var w, c []float64
		for _, o := range ops {
			if o.input == p {
				w = append(w, o.wallS)
				c = append(c, o.cpuS)
			}
		}
		all = append(all, w...)
		wall = append(wall, median(w))
		cpu = append(cpu, median(c))
		simS = append(simS, in.first.simS)
		gf = append(gf, in.first.quality.GenomeFraction)
		len1k = append(len1k, float64(in.first.quality.LenAtLeast[1000]))
	}
	s := sorted(all)
	fmt.Printf("wall_s over %d repetitions: median %.3f min %.3f max %.3f\n", len(s), median(s), s[0], s[len(s)-1])
	m := rec.Metrics
	m.timed("setup_s", median(setup))
	m.timed("wall_s", mean(wall))
	m.timed("cpu_s", mean(cpu))
	m.exact("sim_s", mean(simS))
	m.exact("genome_fraction", mean(gf))
	m.exact("len_ge_1k", mean(len1k))
	return nil
}

// checkpointFootprint returns the bytes and manifest steps a checkpoint
// directory holds.
func checkpointFootprint(dir string) (bytes int64, steps int, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	man, err := checkpoint.Load(dir)
	if err != nil {
		return 0, 0, err
	}
	return bytes, len(man.Steps), nil
}
