// Command mhm is the end-to-end MetaHipMer-Go assembler: it reads FASTQ
// (interleaved paired-end) reads — one file per library — runs the full
// pipeline on a virtual PGAS machine, and writes the resulting scaffolds as
// FASTA.
//
// Multi-library assembly: pass a comma-separated file list to -reads and a
// matching comma-separated insert-size list to -insert (optionally
// -insert-std). Each file is one library; its reads are tagged with the
// file's position, and scaffolding runs one round per library in ascending
// insert-size order:
//
//	mhm -reads pe300.fastq,mp1500.fastq -insert 300,1500 -out scaffolds.fasta
//
// Multi-sample co-assembly: pass -sample-reads a semicolon-separated list of
// name=files entries (each sample's comma-separated per-library file list;
// every sample must list the same number of libraries). The union of all
// samples' reads is co-assembled into one set of scaffolds, every read keeps
// its sample tag, and the run reports how many of each sample's reads
// localize back onto the co-assembly:
//
//	mhm -sample-reads 't0=t0.fastq;t1=t1.fastq' -insert 280 -out scaffolds.fasta
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"mhmgo/internal/core"
	"mhmgo/internal/eval"
	"mhmgo/internal/fastx"
	"mhmgo/internal/seq"
)

// validateMachineShape checks the -ranks/-ranks-per-node pair. Every rank
// must exist (ranks >= 1) and the ranks must tile whole virtual nodes: a
// ranks-per-node that does not divide ranks would leave a ragged final node,
// which the cost model's on/off-node distinction does not support.
func validateMachineShape(ranks, ranksPerNode int) error {
	if ranks < 1 {
		return fmt.Errorf("-ranks must be >= 1 (got %d)", ranks)
	}
	if ranksPerNode < 1 {
		return fmt.Errorf("-ranks-per-node must be >= 1 (got %d)", ranksPerNode)
	}
	if ranks%ranksPerNode != 0 {
		return fmt.Errorf("-ranks-per-node (%d) must divide -ranks (%d); choose a node size that tiles the machine", ranksPerNode, ranks)
	}
	return nil
}

// validateProfileFlags checks the -cpuprofile/-memprofile pair. Both are
// optional, but pointing them at the same file would have the heap profile
// truncate the CPU profile at exit.
func validateProfileFlags(cpuProfile, memProfile string) error {
	if cpuProfile != "" && cpuProfile == memProfile {
		return fmt.Errorf("-cpuprofile and -memprofile must name different files (both %q)", cpuProfile)
	}
	return nil
}

// parseIntList parses a comma-separated integer list ("300,1500").
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in list %q", p, s)
		}
		out[i] = v
	}
	return out, nil
}

// sampleReadsSpec is one sample's parsed -sample-reads entry: the sample's
// name and its per-library FASTQ files in library order.
type sampleReadsSpec struct {
	Name  string
	Files []string
}

// parseSampleReads parses the -sample-reads spec: a semicolon-separated list
// of name=file[,file...] entries, one per sample. Every sample must list the
// same number of files — file i of each sample is library i, so a ragged
// list would silently mispair libraries across samples.
func parseSampleReads(s string) ([]sampleReadsSpec, error) {
	if s == "" {
		return nil, nil
	}
	seen := map[string]bool{}
	var specs []sampleReadsSpec
	for i, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("sample entry %d is empty; want name=file[,file...]", i)
		}
		name, fileList, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("sample entry %q: want name=file[,file...]", entry)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("sample entry %q has an empty name", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate sample name %q", name)
		}
		seen[name] = true
		var files []string
		for _, f := range strings.Split(fileList, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				return nil, fmt.Errorf("sample %q lists an empty file name", name)
			}
			files = append(files, f)
		}
		if len(specs) > 0 && len(files) != len(specs[0].Files) {
			return nil, fmt.Errorf("sample %q lists %d libraries but sample %q lists %d; every sample must provide the same libraries",
				name, len(files), specs[0].Name, len(specs[0].Files))
		}
		specs = append(specs, sampleReadsSpec{Name: name, Files: files})
	}
	if len(specs) > 256 {
		return nil, fmt.Errorf("%d samples exceed the 256 the one-byte sample tag can address", len(specs))
	}
	if len(specs[0].Files) > 256 {
		return nil, fmt.Errorf("%d libraries per sample exceed the 256 the one-byte library tag can address", len(specs[0].Files))
	}
	return specs, nil
}

// printLengths prints one length-summary line of the report.
func printLengths(head, noun string, s seq.LengthStats) {
	fmt.Printf("%s: %s=%d bases=%d max=%d N50=%d\n", head, noun, s.Count, s.TotalBases, s.MaxLen, s.N50)
}

func main() {
	var (
		in           = flag.String("reads", "", "interleaved paired-end FASTQ/FASTA file(s), comma-separated, one per library (required unless -sample-reads)")
		sampleIn     = flag.String("sample-reads", "", "multi-sample co-assembly input: name=file[,file...] entries separated by ';', one per sample")
		out          = flag.String("out", "scaffolds.fasta", "output FASTA file")
		ranks        = flag.Int("ranks", 8, "virtual PGAS ranks")
		ranksPerNode = flag.Int("ranks-per-node", 4, "ranks per virtual node")
		workers      = flag.Int("workers", 0, "OS worker threads driving the simulated ranks (0 = GOMAXPROCS); affects wall time only, never results")
		kmin         = flag.Int("kmin", 21, "smallest k-mer size")
		kmax         = flag.Int("kmax", 33, "largest k-mer size")
		kstep        = flag.Int("kstep", 12, "k-mer size step")
		insert       = flag.String("insert", "", fmt.Sprintf("library insert size(s), comma-separated, one per -reads file (default %d)", seq.DefaultInsertSize))
		insertStd    = flag.String("insert-std", "", "library insert std(s), comma-separated (default insert/10)")
		noScaffold   = flag.Bool("no-scaffold", false, "stop after contig generation")
		minContig    = flag.Int("min-contig", 0, "drop contigs shorter than this")
		ckptDir      = flag.String("checkpoint", "", "write per-stage checkpoints with a content-hashed manifest into this directory")
		resumeDir    = flag.String("resume", "", "resume from the last completed stage checkpointed in this directory")
		failAfter    = flag.String("fail-after-stage", "", "fault injection: kill the run after this stage completes (exit 3)")
		failAtIt     = flag.Int("fail-at-iteration", 0, "fault injection: k-iteration index -fail-after-stage fires at")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	)
	flag.Parse()
	sampleSpecs, err := parseSampleReads(*sampleIn)
	if err != nil {
		log.Fatalf("mhm: -sample-reads: %v", err)
	}
	if *in != "" && len(sampleSpecs) > 0 {
		log.Fatalf("mhm: -reads and -sample-reads are mutually exclusive; list every sample's files in -sample-reads")
	}
	if *in == "" && len(sampleSpecs) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := validateMachineShape(*ranks, *ranksPerNode); err != nil {
		log.Fatalf("mhm: %v", err)
	}
	if err := validateProfileFlags(*cpuProfile, *memProfile); err != nil {
		log.Fatalf("mhm: %v", err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("mhm: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("mhm: -cpuprofile: %v", err)
		}
		// Stopped explicitly on every exit path that follows a completed (or
		// fault-killed) run; log.Fatalf paths lose the profile, which is fine
		// for flag/input errors that happen before any interesting work.
		defer pprof.StopCPUProfile()
	}
	writeMemProfile := func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Printf("mhm: -memprofile: %v", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize the final live heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Printf("mhm: -memprofile: %v", err)
		}
	}

	// Flatten the inputs to one (path, sample, library) entry per file. With
	// -reads every file is one library of the single implicit sample; with
	// -sample-reads file i of each sample is library i, and the union of all
	// samples' reads is co-assembled with per-read sample tags.
	type inputFile struct {
		path   string
		sample uint8
		lib    uint8
	}
	var inputs []inputFile
	if len(sampleSpecs) > 0 {
		for si, sp := range sampleSpecs {
			for li, f := range sp.Files {
				inputs = append(inputs, inputFile{path: f, sample: uint8(si), lib: uint8(li)})
			}
		}
	} else {
		for i, f := range strings.Split(*in, ",") {
			if i > 255 {
				log.Fatalf("mhm: %d -reads files exceed the 256 the one-byte library tag can address", i+1)
			}
			inputs = append(inputs, inputFile{path: strings.TrimSpace(f), lib: uint8(i)})
		}
	}
	numLibs := len(inputs)
	if len(sampleSpecs) > 0 {
		numLibs = len(sampleSpecs[0].Files)
	}
	inserts, err := parseIntList(*insert)
	if err != nil {
		log.Fatalf("mhm: -insert: %v", err)
	}
	stds, err := parseIntList(*insertStd)
	if err != nil {
		log.Fatalf("mhm: -insert-std: %v", err)
	}
	if len(inserts) > 0 && len(inserts) != numLibs {
		log.Fatalf("mhm: %d -insert values for %d libraries", len(inserts), numLibs)
	}
	if len(stds) > 0 && len(stds) != numLibs {
		log.Fatalf("mhm: %d -insert-std values for %d libraries", len(stds), numLibs)
	}

	// One library per library index: in -reads mode a library is named after
	// its file; in -sample-reads mode library i spans one file per sample, so
	// it gets a positional name.
	libs := make([]seq.Library, numLibs)
	for li := range libs {
		lib := seq.Library{InsertSize: seq.DefaultInsertSize, InsertStd: seq.DefaultInsertStd}
		if len(sampleSpecs) > 0 {
			lib.Name = fmt.Sprintf("lib%d", li)
		} else {
			lib.Name = inputs[li].path
		}
		if len(inserts) > 0 {
			lib.InsertSize = inserts[li]
			lib.InsertStd = lib.InsertSize / 10
		}
		if len(stds) > 0 {
			lib.InsertStd = stds[li]
		}
		libs[li] = lib
	}

	var reads []seq.Read
	for i, inf := range inputs {
		block, err := fastx.ReadReadsFile(inf.path)
		if err != nil {
			log.Fatalf("mhm: reading %s: %v", inf.path, err)
		}
		// Pairing is positional (mates at global indices 2i and 2i+1), so an
		// odd-length block would misalign every later block's pairs; drop the
		// trailing unpaired read of any non-final file.
		if len(block)%2 != 0 && i != len(inputs)-1 {
			log.Printf("mhm: warning: %s holds %d reads (odd) — dropping the trailing unpaired read to keep later blocks paired", inf.path, len(block))
			block = block[:len(block)-1]
		}
		for j := range block {
			block[j].LibID = inf.lib
			block[j].SampleID = inf.sample
		}
		reads = append(reads, block...)
		if len(sampleSpecs) > 0 {
			log.Printf("mhm: %s: %d reads loaded (sample %s, library %d, insert %d±%d)",
				inf.path, len(block), sampleSpecs[inf.sample].Name, inf.lib,
				libs[inf.lib].InsertSize, libs[inf.lib].InsertStd)
		} else {
			log.Printf("mhm: %s: %d reads loaded (library %d, insert %d±%d)",
				inf.path, len(block), inf.lib, libs[inf.lib].InsertSize, libs[inf.lib].InsertStd)
		}
	}

	cfg := core.DefaultConfig(*ranks)
	cfg.RanksPerNode = *ranksPerNode
	cfg.Workers = *workers
	cfg.KMin, cfg.KMax, cfg.KStep = *kmin, *kmax, *kstep
	cfg.Libraries = libs
	cfg.Scaffolding = !*noScaffold
	cfg.MinContigLen = *minContig
	cfg.CheckpointDir = *ckptDir
	cfg.ResumeFrom = *resumeDir
	cfg.FailAfterStage = *failAfter
	cfg.FailAtIteration = *failAtIt

	res, err := core.Assemble(reads, cfg)
	if err != nil {
		if errors.Is(err, core.ErrFaultInjected) {
			log.Printf("mhm: %v", err)
			if *ckptDir != "" {
				log.Printf("mhm: checkpoints up to the kill point are in %s; rerun with -resume %s to continue", *ckptDir, *ckptDir)
			}
			// os.Exit skips deferred calls, so flush the profiles by hand —
			// a profile of the partial run is exactly what a fault-injection
			// investigation wants.
			if *cpuProfile != "" {
				pprof.StopCPUProfile()
			}
			writeMemProfile()
			os.Exit(3)
		}
		log.Fatalf("mhm: %v", err)
	}
	if res.ManifestHead != "" {
		fmt.Printf("manifest head: %s\n", res.ManifestHead)
	}

	seqs := res.FinalSequences()
	names := make([]string, len(seqs))
	for i := range seqs {
		names[i] = fmt.Sprintf("scaffold_%06d", i)
	}
	if err := fastx.WriteContigsFASTA(*out, names, seqs); err != nil {
		log.Fatalf("mhm: writing %s: %v", *out, err)
	}

	printLengths("assembly finished", "scaffolds", res.ScaffoldStats)
	printLengths("contigs", "contigs", res.ContigStats)
	fmt.Printf("aligned read fraction: %.3f\n", res.AlignedReadFrac)
	for _, rs := range res.ScaffoldRounds {
		fmt.Printf("scaffolding round %-20s insert=%d contigs_in=%d scaffolds=%d links=%d\n",
			rs.Library, rs.InsertSize, rs.InputContigs, rs.Scaffolds, rs.AcceptedLinks)
	}
	// Simulated times keep microseconds: at thousands of ranks a step takes
	// well under a millisecond, and seconds to four places show one digit.
	fmt.Printf("simulated parallel time: %.6fs on %d ranks (%d virtual nodes); wall time %.3fs\n",
		res.SimSeconds, *ranks, (*ranks+*ranksPerNode-1)/(*ranksPerNode), res.WallSeconds)
	fmt.Println("stage breakdown (simulated microseconds):")
	for _, st := range res.Stages() {
		fmt.Printf("  %-16s %11.1f\n", st.Name, st.Seconds*1e6)
	}
	fmt.Println("steps (simulated microseconds; wait averaged and traffic summed over ranks):")
	fmt.Printf("  %2s %3s %-16s %11s %11s %5s %9s %9s %12s %12s %8s %9s\n",
		"it", "k", "stage", "time_us", "wait_us", "wait%", "msgs", "off-node", "bytes", "off-node", "gets", "barriers")
	for _, ev := range res.Steps {
		waitPct := 0.0
		if ev.Seconds > 0 {
			waitPct = 100 * ev.BarrierWait / ev.Seconds
		}
		fmt.Printf("  %2d %3d %-16s %11.1f %11.1f %5.1f %9d %9d %12d %12d %8d %9d\n", ev.Iteration, ev.K, ev.Stage, ev.Seconds*1e6,
			ev.BarrierWait*1e6, waitPct, ev.Messages, ev.OffNodeMessages, ev.BytesSent, ev.OffNodeBytes, ev.RemoteGets, ev.Barriers)
	}
	s := res.Stats
	fmt.Printf("communication: %d msgs (%d off-node), %.1f MB sent, %.1f MB received, %.1f MB off-node\n",
		s.Messages, s.OffNodeMessages,
		float64(s.BytesSent)/1e6, float64(s.BytesReceived)/1e6, float64(s.OffNodeBytes)/1e6)
	fmt.Printf("peak resident collective payload (worst rank): %.1f KB\n",
		float64(s.PeakResidentBytes)/1e3)
	if len(sampleSpecs) > 0 {
		// Co-assembly: report how much of each sample the pooled assembly
		// explains by localizing every read back onto the scaffolds.
		sampleNames := make([]string, len(sampleSpecs))
		for i, sp := range sampleSpecs {
			sampleNames[i] = sp.Name
		}
		fmt.Println("per-sample read localization:")
		for _, sa := range eval.AbundanceReport(seqs, reads, sampleNames, nil) {
			frac := 0.0
			if sa.Reads > 0 {
				frac = float64(sa.Localized) / float64(sa.Reads)
			}
			fmt.Printf("  %-12s %d/%d reads localized (%.1f%%)\n", sa.Sample, sa.Localized, sa.Reads, 100*frac)
		}
	}
	fmt.Printf("wrote %d sequences to %s\n", len(seqs), *out)
	writeMemProfile()
}
