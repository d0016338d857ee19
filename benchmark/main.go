// Command benchmark is the repository's one benchmark: four workloads over
// the assembler as users run it (file to file in a fresh process, or as jobs
// of the HTTP server), measured on both clocks, with a traced run that breaks
// the result down by layer. BENCHMARK.json at the repository root is its
// contract; README.md in this directory explains the workloads and metrics.
//
//	go run ./benchmark                                  every workload, untraced then traced
//	go run ./benchmark -workload wide_p4096 -trace 0    one workload, end-to-end metrics
//	go run ./benchmark -workload wide_p4096 -trace 1    one workload, per-layer metrics + trace file
//	go run ./benchmark -out A.json                      also append every run's record to A.json
//	go run ./benchmark -compare A.json B.json           compare two result files
//
// Run it from the repository root. The last line a run prints is its result
// as one JSON object.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// outDir holds everything a run writes: scratch inputs and outputs (removed
// when the run ends) and the trace files (kept).
var outDir = filepath.Join("benchmark", "out")

// runLimit bounds one run; the benchmark driver allows 180 s.
const runLimit = 170 * time.Second

func main() {
	var (
		child    = flag.String("child", "", "internal: assemble the job this file describes and exit")
		name     = flag.String("workload", "", "workload to run (default: all of them)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.String("trace", "both", "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run; both")
		out      = flag.String("out", "", "append every run's record to this file (JSON lines)")
		compareF = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *child != "" {
		if err := childMain(*child); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	if *compareF {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		os.Exit(2)
	}
	run := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []workload{w}
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v (run from the repository root)\n", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(benchProcs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var recs []*record
	for _, w := range run {
		for _, traced := range modes {
			rec := runOne(ctx, spec, w, *seed, *seconds, traced)
			if *out != "" {
				if err := rec.appendTo(*out); err != nil {
					rec.invalidate("%v", err)
					rec.finish()
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				}
			}
			recs = append(recs, rec)
		}
	}
	stop()
	os.Exit(exitStatus(recs))
}

// exitStatus is 0 only when every run was correct: a failed operation or a
// failed output check must fail the command, not just move a number.
func exitStatus(recs []*record) int {
	for _, r := range recs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runOne measures one workload once, with tracing on or off, prints the
// result and returns its record.
func runOne(ctx context.Context, spec *benchSpec, w workload, seed int64, seconds int, traced bool) *record {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	rec := newRecord(w.name, seed, seconds, traced)
	ws, _ := spec.workload(w.name)
	fmt.Printf("== workload %s  seed %d  seconds %d  trace %v\n", w.name, seed, seconds, traced)
	fmt.Printf("   why: %s\n", ws.Why)
	fmt.Printf("   host %s  nproc %d  GOMAXPROCS %d  %s  commit %s\n", rec.Host, rec.NProc, rec.GOMAXPROCS, rec.Go, rec.Commit)

	var tr *tracer
	if traced {
		tr = newTracer(w.name, seed)
	}
	var err error
	if w.serve {
		err = runServe(ctx, w, seed, seconds, traced, rec, tr)
	} else {
		err = runBatch(ctx, w, seed, seconds, traced, rec, tr)
	}
	if err != nil {
		rec.invalidate("%v", err)
	}
	if traced {
		path := filepath.Join(outDir, "trace-"+w.name+".json")
		if err := tr.write(path); err != nil {
			rec.invalidate("%v", err)
		} else {
			fmt.Printf("trace: %s (%d spans)\n", path, len(tr.spans))
		}
	}
	rec.Metrics.zero(spec.declared(traced), w.applies)
	if len(rec.Failures) == 0 {
		if err := checkSet(spec.declared(traced), rec.Metrics); err != nil {
			rec.invalidate("%v", err)
		}
	}
	rec.finish()
	rec.print(os.Stdout, spec)
	return rec
}
