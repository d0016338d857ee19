package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
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
func TestSchedulerGoldenP8(t *testing.T) {
	const (
		wantSim  = "0.047086079399978838"
		wantHash = "b829c58aa30a51f0fd98beed57d0d6fd6cbd6d3556bf55b5f39e37b25b2d6147"
	)
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
