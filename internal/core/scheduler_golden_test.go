package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mhmgo/internal/sim"
)

// The pooled scheduler (pgas.Config.Workers) is an execution knob: it decides
// how many rank goroutines run concurrently, never what they compute. These
// tests pin that contract two ways: against golden values captured from the
// pre-scheduler goroutine-per-rank engine at P=8, and against each other at
// P=1024 where the pool actually multiplexes many parked ranks per worker.

// resultFingerprint hashes the assembled sequences (each prefixed with its
// little-endian uint64 length, so the digest is injective over the sequence
// list) into a hex digest.
func resultFingerprint(res *Result) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, s := range res.FinalSequences() {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSchedulerGoldenP8 pins the pooled scheduler's output — simulated
// seconds and the exact assembled sequences — to golden values captured from
// the pre-refactor goroutine-per-rank engine, for every pool size. Any drift
// means the scheduler changed simulation semantics, not just wall-clock.
//
// wantSim was re-captured once (from 0.056517040799970962) when de Bruijn
// traversal began finding path starts with one claim exchange instead of a
// remote Get per vertex orientation: fewer charged messages, the same
// sequences, so wantHash did not move. It was re-captured again (from
// 0.047932597199977493) when global IDs came to name their owner: renumbering
// lost its scan and all-gather, local assembly stopped fetching contigs it has
// no reads for, and scaffolding's components became owner-partitioned —
// different charges, the same sequences.
//
// wantStages pins Result.Stages: per-stage totals, longest first, ties in
// schedule order. The values were first captured from pgas's stage registry
// before core's step became the only code that times a step, which proved the
// move left every step's window where it was.
//
// All three were re-captured (from 0.047086079399978838 and b829c58a…) when
// read localization began block-partitioning pairs in contig order instead of
// shipping them to their contig's owner: the second iteration's reads sit on
// different ranks in a different order, so its charges and its tie-breaks —
// and with them the sequences — moved.
//
// wantSim and wantStages were re-captured (from 0.039296552600005724, with
// dbg_traversal 0.013192091199999686 the longest stage) when de Bruijn
// traversal began ranking its paths by pointer doubling instead of walking
// them one remote Get per step: dbg_traversal fell to 0.003845100000000390,
// and the other stages moved only in their last digits, as each is a
// difference of two clock readings that now sit elsewhere. Every contig is
// the one a walk gave, so wantHash did not move.
//
// All three were re-captured (from 0.029949561400012915 and 031a9d69…) when
// dbg.DistributeContigs stopped striping the deduplicated contigs over the
// ranks in a second exchange and left each on its content-hash owner, and the
// final scaffold emit lost its provisional renumbering: contigs have other
// owners and IDs, so localization, which orders pairs by contig ID, puts the
// second iteration's reads on other ranks in another order, and the charges
// and the tie-breaks moved with them. With localization off the FASTA does
// not move.
//
// wantSim and wantStages were re-captured (from 0.030225101000013733, with
// kmer_analysis 0.005530748400013677) when k-mer analysis stopped building a
// heavy-hitter sketch nothing read and tree-merging it once per k: one
// collective and its two barriers per iteration fewer. kmer_analysis fell by
// that collective's charge; alignment moved in its last digits only, as a
// difference of two clock readings that now sit elsewhere. The sketch never
// touched the counts, so wantHash did not move.
//
// wantSim and wantStages were re-captured (from 0.030154661000013742) when
// the stages stopped all-reducing counters nothing read: contig refinement's
// bubble, hair and compaction counts (only pruning's convergence count is
// still reduced), local assembly's touched-contig and steal counts, and
// scaffolding's splint, span, repeat and rRNA counts: five collectives per k
// and four per scaffolding round fewer, each two barriers. contig_refine fell
// from 0.002818650400000457, local_assembly from 0.000826369800000025 and
// scaffolding from 0.006576623799999921; alignment and dbg_traversal moved in
// their last digits only, as differences of two clock readings that now sit
// elsewhere. No collective decided anything, so wantHash did not move.
//
// wantSim and wantStages were re-captured (from 0.029688326600013686) when
// the dht Updater stopped writing other ranks' partitions and began shipping
// its updates to their owners in one collective exchange per Flush: each
// flush now charges the exchange's three barriers and one message per
// destination instead of one per 256-to-1024-update batch. The stages with
// Updater phases rose: alignment from 0.010288644199999315 (seed index),
// scaffolding from 0.006443385399999894 (link table), contig_refine from
// 0.002618792800000435 (junction indexes) and kmer_merge from
// 0.000110184000000004 (contig k-mers); the table contents are the same, so
// wantHash did not move.
//
// wantSim and wantStages were re-captured (from 0.030076726600013686) when
// the aligner stopped reading the seed index with one cached one-sided Get
// per seed and began asking each distinct seed's owner once per pass, in one
// exchange with one reply exchange, against hit lists the owner sorts once
// (a rank answers the seeds it owns itself).
// alignment fell from 0.010373244199999299 and scaffolding, whose rounds
// each run an alignment pass, from 0.006522185399999898; dbg_traversal,
// contig_refine and local_assembly moved in their last digits only, as
// differences of two clock readings that now sit elsewhere. Every read's
// candidate set and best alignment are unchanged, so wantHash did not move.
func TestSchedulerGoldenP8(t *testing.T) {
	const (
		wantSim  = "0.019865646000020058"
		wantHash = "10ee8508432240923dbcdbda9d8e19b041875b7426e1c9217c7477f7f1aebca4"
	)
	wantStages := []string{
		"kmer_analysis 0.005460308400013680",
		"dbg_traversal 0.003570608400000284",
		"scaffolding 0.003426071200002507",
		"alignment 0.003258277800003257",
		"contig_refine 0.002798792800000315",
		"local_assembly 0.000693131400000021",
		"kmer_merge 0.000155184000000003",
	}
	comm := sim.WetlandsLikeCommunity(8, 0.5, 7)
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen:    100,
		InsertSize: 280,
		InsertStd:  25,
		ErrorRate:  0.01,
		Coverage:   10,
		Seed:       8,
	})
	if len(reads) != 2962 {
		t.Fatalf("workload drifted: %d reads, want 2962", len(reads))
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig(8)
			cfg.RanksPerNode = 4
			cfg.Workers = workers
			res, err := Assemble(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%.18f", res.SimSeconds); got != wantSim {
				t.Errorf("sim seconds = %s, want %s (pre-refactor golden)", got, wantSim)
			}
			if got := resultFingerprint(res); got != wantHash {
				t.Errorf("output hash = %s, want %s (pre-refactor golden)", got, wantHash)
			}
			var got []string
			for _, st := range res.Stages() {
				got = append(got, fmt.Sprintf("%s %.18f", st.Name, st.Seconds))
			}
			if !slices.Equal(got, wantStages) {
				t.Errorf("stages =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(wantStages, "\n"))
			}
		})
	}
}

// TestLargePSmokeP1024 runs the full pipeline at P=1024 — far more ranks than
// hardware threads, so most ranks are parked at any moment — and asserts the
// result is bit-identical across pool sizes. Skipped under -race (goroutine
// shadow memory makes P=1024 prohibitively slow); the P=8 golden above and
// the pgas package's own race tests cover the same code paths.
func TestLargePSmokeP1024(t *testing.T) {
	if raceEnabled {
		t.Skip("P=1024 smoke is too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("P=1024 smoke skipped in -short mode")
	}
	comm := sim.WetlandsLikeCommunity(4, 0.3, 7)
	reads := sim.SimulateReads(comm, sim.ReadConfig{
		ReadLen:    100,
		InsertSize: 280,
		InsertStd:  25,
		ErrorRate:  0.01,
		Coverage:   4,
		Seed:       9,
	})
	type outcome struct {
		sim  string
		hash string
	}
	var first *outcome
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := DefaultConfig(1024)
		cfg.RanksPerNode = 16
		cfg.Workers = workers
		// One k iteration keeps the smoke inside a CI time budget; the
		// barrier/exchange traffic per iteration is identical in kind.
		cfg.KMin, cfg.KMax = 21, 21
		res, err := Assemble(reads, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := outcome{sim: fmt.Sprintf("%.18f", res.SimSeconds), hash: resultFingerprint(res)}
		if first == nil {
			first = &got
			t.Logf("P=1024 workers=%d: sim=%s hash=%s scaffolds=%d", workers, got.sim, got.hash, len(res.FinalSequences()))
			continue
		}
		if got != *first {
			t.Errorf("workers=%d diverged: sim=%s hash=%s, want sim=%s hash=%s",
				workers, got.sim, got.hash, first.sim, first.hash)
		}
	}
}
