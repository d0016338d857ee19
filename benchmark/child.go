package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mhmgo/internal/core"
	"mhmgo/internal/fastx"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
)

// A batch repetition runs in a fresh child process of the benchmark binary,
// because users pay process start, a cold heap and file I/O on every mhm run.
// The parent hands the child a childJob file, reads its resource usage from
// the kernel, and gets the exact core.Result fields back as JSON on stdout.

// childJob is what one child process assembles: FASTQ files in, FASTA out.
type childJob struct {
	Reads           []string      `json:"reads"` // one interleaved FASTQ per library
	Libs            []seq.Library `json:"libs"`
	Ranks           int           `json:"ranks"`
	RanksPerNode    int           `json:"ranks_per_node"`
	CheckpointDir   string        `json:"checkpoint_dir,omitempty"`
	ResumeFrom      string        `json:"resume_from,omitempty"`
	FailAfterStage  string        `json:"fail_after_stage,omitempty"`
	FailAtIteration int           `json:"fail_at_iteration,omitempty"`
	Out             string        `json:"out"`
	// Trace installs the core.Config.Progress hook and returns one stamped
	// event per completed stage.
	Trace bool `json:"trace,omitempty"`
}

// stageEvent is one core.ProgressEvent stamped with the host clock.
type stageEvent struct {
	Stage     string  `json:"stage"`
	Iteration int     `json:"iteration"`
	K         int     `json:"k"`
	Sim       float64 `json:"sim"`
	HostNS    int64   `json:"host_ns"`
}

// childResult is what a child reports, plus what the parent measured on it.
type childResult struct {
	// Killed is set when the injected fault ended the run (expected for the
	// first half of a kill/resume repetition; no FASTA is written).
	Killed       bool           `json:"killed,omitempty"`
	SimS         float64        `json:"sim_s"`
	Stats        pgas.CommStats `json:"stats"`
	ManifestHead string         `json:"manifest_head,omitempty"`
	// AssembleStartNS and AssembleEndNS bracket core.Assemble on the host
	// clock; Events are the stage boundaries in between (traced runs only).
	AssembleStartNS int64        `json:"assemble_start_ns"`
	AssembleEndNS   int64        `json:"assemble_end_ns"`
	Events          []stageEvent `json:"events,omitempty"`
	AllocMB         float64      `json:"alloc_mb"`
	GCCPUFrac       float64      `json:"gc_cpu_frac"`

	// Measured by the parent: spawn to exit on the host clock, user+system
	// CPU and peak resident set from the child's rusage.
	Start     time.Time `json:"-"`
	WallS     float64   `json:"-"`
	CPUS      float64   `json:"-"`
	PeakRSSMB float64   `json:"-"`
}

// childMain is the child process: file to file, like cmd/mhm.
func childMain(jobPath string) error {
	runtime.GOMAXPROCS(benchProcs)
	data, err := os.ReadFile(jobPath)
	if err != nil {
		return err
	}
	var job childJob
	if err := json.Unmarshal(data, &job); err != nil {
		return fmt.Errorf("%s: %w", jobPath, err)
	}
	var reads []seq.Read
	for li, path := range job.Reads {
		block, err := fastx.ReadReadsFile(path)
		if err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		for i := range block {
			block[i].LibID = uint8(li)
		}
		reads = append(reads, block...)
	}

	cfg := core.DefaultConfig(job.Ranks)
	cfg.RanksPerNode = job.RanksPerNode
	cfg.Workers = benchProcs
	cfg.Libraries = job.Libs
	cfg.InsertSize, cfg.InsertStd = job.Libs[0].InsertSize, job.Libs[0].InsertStd
	cfg.CheckpointDir = job.CheckpointDir
	cfg.ResumeFrom = job.ResumeFrom
	cfg.FailAfterStage = job.FailAfterStage
	cfg.FailAtIteration = job.FailAtIteration
	var out childResult
	if job.Trace {
		cfg.Progress = func(ev core.ProgressEvent) {
			out.Events = append(out.Events, stageEvent{ev.Stage, ev.Iteration, ev.K, ev.SimSeconds, time.Now().UnixNano()})
		}
	}
	out.AssembleStartNS = time.Now().UnixNano()
	res, err := core.Assemble(reads, cfg)
	out.AssembleEndNS = time.Now().UnixNano()
	switch {
	case errors.Is(err, core.ErrFaultInjected) && job.FailAfterStage != "":
		out.Killed = true
	case err != nil:
		return err
	default:
		out.SimS = res.SimSeconds
		out.Stats = res.Stats
		out.ManifestHead = res.ManifestHead
		seqs := res.FinalSequences()
		names := make([]string, len(seqs))
		for i := range seqs {
			names[i] = fmt.Sprintf("scaffold_%06d", i)
		}
		if err := fastx.WriteContigsFASTA(job.Out, names, seqs); err != nil {
			return fmt.Errorf("writing %s: %w", job.Out, err)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	out.GCCPUFrac = ms.GCCPUFraction
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runChild executes one job in a fresh process and waits for it to end.
func runChild(ctx context.Context, dir string, job childJob) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	data, err := json.Marshal(job)
	if err != nil {
		return res, err
	}
	jobPath := filepath.Join(dir, "job.json")
	if err := os.WriteFile(jobPath, data, 0o644); err != nil {
		return res, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", jobPath)
	cmd.Stderr = os.Stderr
	res.Start = time.Now()
	stdout, err := cmd.Output()
	res.WallS = time.Since(res.Start).Seconds()
	if err != nil {
		return res, fmt.Errorf("child process: %w", err)
	}
	if err := json.Unmarshal(stdout, &res); err != nil {
		return res, fmt.Errorf("child result: %w", err)
	}
	ps := cmd.ProcessState
	res.CPUS = ps.UserTime().Seconds() + ps.SystemTime().Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = rssMB(ru)
	}
	return res, nil
}

// rssMB is the peak resident set of a finished or running process; Linux
// reports it in kilobytes.
func rssMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }
