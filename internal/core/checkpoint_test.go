package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mhmgo/internal/aligner"
	"mhmgo/internal/checkpoint"
	"mhmgo/internal/dbg"
	"mhmgo/internal/fastx"
	"mhmgo/internal/pgas"
	"mhmgo/internal/scaffold"
	"mhmgo/internal/seq"
)

// ckptReads returns a small but non-trivial read set for checkpoint tests:
// two iterations of contig generation, multiple contigs, scaffolding work.
func ckptReads(t *testing.T) []seq.Read {
	t.Helper()
	_, reads := smallCommunity(t, 2, 8)
	return reads
}

// assertSameRun asserts the four bit-identity guarantees of a resumed run:
// identical final sequences, identical simulated seconds, identical manifest
// head hash and the identical record of every step, including those the
// checkpoint carried across the kill.
func assertSameRun(t *testing.T, want, got *Result) {
	t.Helper()
	ws, gs := want.FinalSequences(), got.FinalSequences()
	if len(ws) != len(gs) {
		t.Fatalf("final sequence count %d != baseline %d", len(gs), len(ws))
	}
	for i := range ws {
		if !bytes.Equal(ws[i], gs[i]) {
			t.Fatalf("final sequence %d differs from baseline", i)
		}
	}
	if want.SimSeconds != got.SimSeconds {
		t.Errorf("sim seconds %v != baseline %v", got.SimSeconds, want.SimSeconds)
	}
	if want.ManifestHead == "" || got.ManifestHead == "" {
		t.Fatal("missing manifest head")
	}
	if want.ManifestHead != got.ManifestHead {
		t.Errorf("manifest head %s != baseline %s", got.ManifestHead, want.ManifestHead)
	}
	if !reflect.DeepEqual(want.Steps, got.Steps) {
		t.Errorf("steps %+v\n!= baseline %+v", got.Steps, want.Steps)
	}
}

// TestCheckpointResumeAllStages is the fault-injection matrix: for every
// stage the pipeline checkpoints, kill the run right after that stage, resume
// from the checkpoint directory, and require the resumed run to reproduce the
// uninterrupted run bit-for-bit — at P = 1, 3 and 8.
func TestCheckpointResumeAllStages(t *testing.T) {
	reads := ckptReads(t)
	for _, p := range []int{1, 3, 8} {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			cfg := testConfig(p)

			baseDir := t.TempDir()
			bcfg := cfg
			bcfg.CheckpointDir = baseDir
			base, err := Assemble(reads, bcfg)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			man, err := checkpoint.Load(baseDir)
			if err != nil {
				t.Fatalf("baseline manifest: %v", err)
			}
			if len(man.Steps) == 0 {
				t.Fatal("baseline run recorded no checkpoint steps")
			}
			if man.Head() != base.ManifestHead {
				t.Fatalf("result head %s != manifest head %s", base.ManifestHead, man.Head())
			}

			for _, step := range man.Steps {
				step := step
				t.Run(fmt.Sprintf("kill-after-%02d-%s-it%d", step.Seq, step.Stage, step.Iteration), func(t *testing.T) {
					dir := t.TempDir()
					kcfg := cfg
					kcfg.CheckpointDir = dir
					kcfg.FailAfterStage = step.Stage
					kcfg.FailAtIteration = step.Iteration
					if _, err := Assemble(reads, kcfg); !errors.Is(err, ErrFaultInjected) {
						t.Fatalf("killed run returned %v, want ErrFaultInjected", err)
					}
					killed, err := checkpoint.Load(dir)
					if err != nil {
						t.Fatalf("manifest after kill: %v", err)
					}
					if got := len(killed.Steps); got != step.Seq+1 {
						t.Fatalf("killed run recorded %d steps, want %d", got, step.Seq+1)
					}

					rcfg := cfg
					rcfg.CheckpointDir = dir
					rcfg.ResumeFrom = dir
					res, err := Assemble(reads, rcfg)
					if err != nil {
						t.Fatalf("resume: %v", err)
					}
					assertSameRun(t, base, res)
				})
			}
		})
	}
}

// TestCheckpointWorkersIndependent runs the checkpointed P=8 configuration
// on one worker slot and on four: both must complete — at Workers=1 every
// rank's deposit runs on the one slot, so a deposit that waited for another
// rank would hang — and write the same manifest head and the same FASTA.
func TestCheckpointWorkersIndependent(t *testing.T) {
	reads := ckptReads(t)
	var heads []string
	var fastas [][]byte
	for _, workers := range []int{1, 4} {
		cfg := testConfig(8)
		cfg.Workers = workers
		cfg.CheckpointDir = t.TempDir()
		done := make(chan error, 1)
		var res *Result
		go func() {
			var err error
			res, err = Assemble(reads, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Workers=%d: %v", workers, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("Workers=%d: checkpointed run did not complete", workers)
		}
		man, err := checkpoint.Load(cfg.CheckpointDir)
		if err != nil {
			t.Fatalf("Workers=%d: manifest: %v", workers, err)
		}
		if man.Head() != res.ManifestHead {
			t.Fatalf("Workers=%d: result head %s != manifest head %s", workers, res.ManifestHead, man.Head())
		}
		seqs := res.FinalSequences()
		names := make([]string, len(seqs))
		for i := range seqs {
			names[i] = fmt.Sprintf("scaffold_%06d", i)
		}
		path := filepath.Join(t.TempDir(), "scaffolds.fasta")
		if err := fastx.WriteContigsFASTA(path, names, seqs); err != nil {
			t.Fatal(err)
		}
		fasta, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		heads, fastas = append(heads, res.ManifestHead), append(fastas, fasta)
	}
	if heads[0] != heads[1] {
		t.Errorf("manifest head at Workers=1 %s != Workers=4 %s", heads[0], heads[1])
	}
	if !bytes.Equal(fastas[0], fastas[1]) {
		t.Errorf("FASTA differs between Workers=1 and Workers=4 (%d vs %d bytes)", len(fastas[0]), len(fastas[1]))
	}
}

// TestMidCollectiveKillResume kills the run abruptly inside a barrier — the
// middle of a collective, not a clean stage boundary — and requires that the
// checkpoints already on disk still resume to a bit-identical result. The
// manifest's atomic write discipline means a mid-collective kill can never
// tear a recorded step. The barriers are rank 0's host arrivals, the
// unpriced ones inside AllReduce and ExScan included, and are picked so that
// every stage of the schedule is killed at least once (the test checks it),
// most of them inside a collective, and one kill lands between the stage
// windows, in read localization. Rank 0 passes barriers 2-10 in iteration
// 0's kmer_analysis (4 is an AllReduce's exit), 13-35 in dbg_traversal,
// 38-57 in contig_refine (48 an AllReduce's entry), 60-66 in alignment (66
// an AllReduce's exit), 69-73 in local_assembly (73 an AllReduce's exit),
// 75-79 between the windows (77 is localization's ExScan's exit), 92-93 in
// iteration 1's kmer_merge, 123-142 in its contig_refine (134 an
// AllReduce's exit) and 161-197 in scaffolding (182 an AllReduce's exit).
func TestMidCollectiveKillResume(t *testing.T) {
	reads := ckptReads(t)
	cfg := testConfig(3)

	baseDir := t.TempDir()
	bcfg := cfg
	bcfg.CheckpointDir = baseDir
	base, err := Assemble(reads, bcfg)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	baseMan, err := checkpoint.Load(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	killed := map[string]bool{} // the stages a kill interrupted

	for _, n := range []int{1, 4, 30, 48, 66, 73, 77, 93, 134, 182} {
		n := n
		t.Run(fmt.Sprintf("barrier=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			kcfg := cfg
			kcfg.CheckpointDir = dir
			kcfg.FailAtBarrier = n
			_, err := Assemble(reads, kcfg)
			if err == nil {
				if base.HostBarriers >= uint64(n) {
					t.Fatalf("run completed although rank 0 arrives at %d barriers; the trap at %d did not fire", base.HostBarriers, n)
				}
				t.Skipf("run completed before barrier %d; nothing to kill", n)
			}
			if !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("killed run returned %v, want ErrFaultInjected", err)
			}

			man, err := checkpoint.Load(dir)
			if err != nil {
				t.Fatalf("manifest after mid-collective kill: %v", err)
			}
			if err := man.Verify(); err != nil {
				t.Fatalf("manifest chain torn by mid-collective kill: %v", err)
			}
			if len(man.Steps) < len(baseMan.Steps) {
				killed[baseMan.Steps[len(man.Steps)].Stage] = true
			}

			rcfg := cfg
			rcfg.CheckpointDir = dir
			rcfg.ResumeFrom = dir
			res, err := Assemble(reads, rcfg)
			if len(man.Steps) == 0 {
				if err == nil || !strings.Contains(err.Error(), "no completed steps") {
					t.Fatalf("resume with no steps = %v, want refusal", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			assertSameRun(t, base, res)
		})
	}
	for _, st := range baseMan.Steps {
		if !killed[st.Stage] {
			t.Errorf("no kill interrupted stage %s; re-pick the barriers", st.Stage)
		}
	}
}

// TestCheckpointingDoesNotPerturbRun pins the zero-interference property:
// writing checkpoints must not change the simulated seconds or the output of
// a run, and a pure resume (no new checkpoints) reproduces both.
func TestCheckpointingDoesNotPerturbRun(t *testing.T) {
	reads := ckptReads(t)
	cfg := testConfig(3)

	plain, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ccfg := cfg
	ccfg.CheckpointDir = dir
	ckpt, err := Assemble(reads, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SimSeconds != ckpt.SimSeconds {
		t.Errorf("checkpointing changed sim seconds: %v vs %v", ckpt.SimSeconds, plain.SimSeconds)
	}
	ps, cs := plain.FinalSequences(), ckpt.FinalSequences()
	if len(ps) != len(cs) {
		t.Fatalf("checkpointing changed output count: %d vs %d", len(cs), len(ps))
	}
	for i := range ps {
		if !bytes.Equal(ps[i], cs[i]) {
			t.Fatalf("checkpointing changed output sequence %d", i)
		}
	}

	// Resume from the final checkpoint without writing new ones: the restart
	// replays only the final emit, yet must land on the same result.
	rcfg := cfg
	rcfg.ResumeFrom = dir
	res, err := Assemble(reads, rcfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.SimSeconds != plain.SimSeconds {
		t.Errorf("resumed sim seconds %v != %v", res.SimSeconds, plain.SimSeconds)
	}
	if res.ManifestHead != ckpt.ManifestHead {
		t.Errorf("resumed head %s != checkpointed head %s", res.ManifestHead, ckpt.ManifestHead)
	}
}

// copyCheckpointDir clones a checkpoint directory so each negative-path case
// can tamper with its own copy.
func copyCheckpointDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestResumeRefused is the negative-path table: every way a checkpoint can
// disagree with the resuming run must be refused with its own distinct error.
func TestResumeRefused(t *testing.T) {
	reads := ckptReads(t)
	cfg := testConfig(3)
	srcDir := t.TempDir()
	bcfg := cfg
	bcfg.CheckpointDir = srcDir
	if _, err := Assemble(reads, bcfg); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	baseMan, err := checkpoint.Load(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	last := baseMan.Steps[len(baseMan.Steps)-1]

	// denseIDs rewrites the last step's contig IDs to what they were before
	// IDs named their owner — 0..N-1 counted across the ranks in rank order —
	// and re-chains the manifest over the rewritten shards, so only the IDs
	// are wrong. It returns the directory and the first dense ID of rank 1,
	// where the owner encoding and the dense one first disagree.
	denseIDs := func(t *testing.T) (string, int) {
		dir := copyCheckpointDir(t, srcDir)
		hashes := slices.Clone(last.ShardHashes)
		id, rank1First := 0, -1
		for p := range hashes {
			path := checkpoint.ShardPath(dir, last.Seq, last.Stage, p)
			payload, err := checkpoint.ReadShard(path, hashes[p])
			if err != nil {
				t.Fatal(err)
			}
			st, err := decodeRankState(payload)
			if err != nil {
				t.Fatal(err)
			}
			if p == 1 {
				rank1First = id
			}
			for i := range st.contigs {
				st.contigs[i].ID = id
				id++
			}
			if hashes[p], err = checkpoint.WriteShard(path, encodeRankState(st)); err != nil {
				t.Fatal(err)
			}
		}
		man := checkpoint.New(baseMan.ConfigHash, baseMan.InputHash, baseMan.Ranks)
		for _, step := range baseMan.Steps[:len(baseMan.Steps)-1] {
			man.AppendStep(step.Iteration, step.Stage, step.K, step.ShardHashes)
		}
		man.AppendStep(last.Iteration, last.Stage, last.K, hashes)
		if err := man.Save(dir); err != nil {
			t.Fatal(err)
		}
		return dir, rank1First
	}
	denseDir, rank1First := denseIDs(t)

	// lastReadShard returns the path of the read shard rank p's shard of the
	// last step names, in a copy of the checkpoint.
	lastReadShard := func(t *testing.T, p int) (dir, path string) {
		dir = copyCheckpointDir(t, srcDir)
		payload, err := checkpoint.ReadShard(checkpoint.ShardPath(dir, last.Seq, last.Stage, p), last.ShardHashes[p])
		if err != nil {
			t.Fatal(err)
		}
		st, err := decodeRankState(payload)
		if err != nil {
			t.Fatal(err)
		}
		return dir, checkpoint.ReadsPath(dir, st.readsHash)
	}

	cases := []struct {
		name    string
		prepare func(t *testing.T) (dir string, reads []seq.Read, cfg Config)
		want    error
		wantMsg string
	}{
		{
			name: "mismatched config hash",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				c := cfg
				c.MinKmerCount = 3
				return srcDir, reads, c
			},
			want: checkpoint.ErrConfigMismatch,
		},
		{
			name: "mismatched input reads",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				mutated := make([]seq.Read, len(reads))
				copy(mutated, reads)
				r0 := mutated[0]
				r0.Seq = slices.Clone(r0.Seq)
				if r0.Seq[0] == 'A' {
					r0.Seq[0] = 'C'
				} else {
					r0.Seq[0] = 'A'
				}
				mutated[0] = r0
				return srcDir, mutated, cfg
			},
			want: checkpoint.ErrInputMismatch,
		},
		{
			name: "wrong rank count",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				return srcDir, reads, testConfig(4)
			},
			want: checkpoint.ErrRankMismatch,
		},
		{
			name: "missing shard file",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir := copyCheckpointDir(t, srcDir)
				if err := os.Remove(checkpoint.ShardPath(dir, last.Seq, last.Stage, 0)); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			want: checkpoint.ErrMissingShard,
		},
		{
			name: "corrupted shard bytes",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir := copyCheckpointDir(t, srcDir)
				path := checkpoint.ShardPath(dir, last.Seq, last.Stage, 1)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x01
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			want: checkpoint.ErrCorruptShard,
		},
		{
			name: "missing read shard",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir, path := lastReadShard(t, 2)
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			want:    checkpoint.ErrMissingShard,
			wantMsg: "rank 2 reads",
		},
		{
			name: "corrupted read shard bytes",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir, path := lastReadShard(t, 0)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x01
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			want:    checkpoint.ErrCorruptShard,
			wantMsg: "rank 0 reads",
		},
		{
			name: "contig IDs dense in rank order",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				return denseDir, reads, cfg
			},
			want:    checkpoint.ErrCorruptShard,
			wantMsg: fmt.Sprintf("rank 1 holds contig ID %d ", rank1First),
		},
		{
			name: "truncated manifest",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir := copyCheckpointDir(t, srcDir)
				path := filepath.Join(dir, checkpoint.ManifestFile)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			want: checkpoint.ErrBadManifest,
		},
		{
			name: "tampered hash chain",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir := copyCheckpointDir(t, srcDir)
				man, err := checkpoint.Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				man.Steps[0].ShardHashes[0] = strings.Repeat("0", 64)
				if err := man.Save(dir); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			want: checkpoint.ErrBadChain,
		},
		{
			name: "empty directory",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				return t.TempDir(), reads, cfg
			},
			want: checkpoint.ErrBadManifest,
		},
		{
			name: "manifest with no completed steps",
			prepare: func(t *testing.T) (string, []seq.Read, Config) {
				dir := t.TempDir()
				c := cfg.withDefaults()
				man := checkpoint.New(configHash(c, c.KValues()), inputHash(reads), c.Ranks)
				if err := man.Save(dir); err != nil {
					t.Fatal(err)
				}
				return dir, reads, cfg
			},
			wantMsg: "no completed steps",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, rd, c := tc.prepare(t)
			c.ResumeFrom = dir
			_, err := Assemble(rd, c)
			if err == nil {
				t.Fatal("resume accepted, want refusal")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("resume error = %v, want %v", err, tc.want)
			}
			if tc.wantMsg != "" && !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("resume error = %v, want message containing %q", err, tc.wantMsg)
			}
		})
	}
}

// TestReadShardWrittenOncePerReadSet pins the content-addressed read shards:
// a checkpointed P=3 run at k = 21, 33 holds each rank's input block through
// iteration 0 and its localized reads through iteration 1, so it leaves one
// read shard per rank per read set — six — and every rank-state shard names
// its rank's current set. A resume into the same directory writes no read
// shard, new or again.
func TestReadShardWrittenOncePerReadSet(t *testing.T) {
	reads := ckptReads(t)
	cfg := testConfig(3)
	dir := t.TempDir()
	kcfg := cfg
	kcfg.CheckpointDir, kcfg.FailAfterStage, kcfg.FailAtIteration = dir, StageAlignment, 1
	if _, err := Assemble(reads, kcfg); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("killed run returned %v, want ErrFaultInjected", err)
	}
	readShards := func() map[string]fs.FileInfo {
		entries, err := os.ReadDir(filepath.Dir(checkpoint.ReadsPath(dir, "")))
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]fs.FileInfo)
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = info
		}
		return files
	}
	killed := readShards()
	rcfg := cfg
	rcfg.CheckpointDir, rcfg.ResumeFrom = dir, dir
	if _, err := Assemble(reads, rcfg); err != nil {
		t.Fatalf("resume: %v", err)
	}
	resumed := readShards()
	if len(resumed) != len(killed) {
		t.Errorf("the resume left %d read shards, the killed run %d", len(resumed), len(killed))
	}
	for name, info := range killed {
		if again, ok := resumed[name]; !ok || !os.SameFile(info, again) {
			t.Errorf("the resume removed or rewrote read shard %s", name)
		}
	}

	man, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	named := make([]map[string]bool, cfg.Ranks) // rank -> read shards its steps name
	localized := 0
	for _, step := range man.Steps {
		for p := range cfg.Ranks {
			payload, err := checkpoint.ReadShard(checkpoint.ShardPath(dir, step.Seq, step.Stage, p), step.ShardHashes[p])
			if err != nil {
				t.Fatal(err)
			}
			st, err := decodeRankState(payload)
			if err != nil {
				t.Fatal(err)
			}
			got, err := checkpoint.LoadReads(dir, st.readsHash)
			if err != nil {
				t.Fatalf("step %d rank %d: %v", step.Seq, p, err)
			}
			lo, hi := pgas.PairBlockRange(len(reads), cfg.Ranks, p)
			block := checkpoint.HashSlice(got, checkpoint.ReadFields) == checkpoint.HashSlice(reads[lo:hi], checkpoint.ReadFields)
			if block != (step.Iteration == 0) {
				t.Errorf("step %d (iteration %d) rank %d names its input block = %v", step.Seq, step.Iteration, p, block)
			}
			if step.Iteration == 1 && step.Stage == StageKmerAnalysis {
				localized += len(got)
			}
			if named[p] == nil {
				named[p] = make(map[string]bool)
			}
			named[p][st.readsHash+".ckpt"] = true
		}
	}
	if localized != len(reads) {
		t.Errorf("the localized read shards hold %d reads, want %d", localized, len(reads))
	}
	total := 0
	for p, names := range named {
		if len(names) != 2 {
			t.Errorf("rank %d's steps name %d read shards, want 2", p, len(names))
		}
		for name := range names {
			if _, ok := resumed[name]; !ok {
				t.Errorf("rank %d names read shard %s, which is not in the directory", p, name)
			}
		}
		total += len(names)
	}
	if len(resumed) != total {
		t.Errorf("%d read shards in the directory, %d named by rank-state shards", len(resumed), total)
	}
}

// TestLocalizedBlocksFromInputCount: read localization sizes its blocks from
// the input's pair count, which every rank knows, not from a reduction of the
// pairs the ranks hold. On the two-library input at P ∈ {1, 3, 8}, run
// uninterrupted and resumed from a kill before the first localization, every
// rank-state shard written after a localization holds the reads of block
// ceil(pairs/P) at that block's offset: the figures the reduction gave.
func TestLocalizedBlocksFromInputCount(t *testing.T) {
	_, reads := twoLibraryCommunity(t)
	pairs := len(reads) / 2
	for _, p := range []int{1, 3, 8} {
		cfg := twoLibraryConfig(p)
		cfg.ReadLocalization = true
		block := max(1, (pairs+p-1)/p)
		check := func(run, dir string) {
			man, err := checkpoint.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			localized := 0
			for _, step := range man.Steps {
				if step.Iteration == 0 {
					continue // the input block, before any localization
				}
				localized++
				for rank := range p {
					payload, err := checkpoint.ReadShard(checkpoint.ShardPath(dir, step.Seq, step.Stage, rank), step.ShardHashes[rank])
					if err != nil {
						t.Fatal(err)
					}
					st, err := decodeRankState(payload)
					if err != nil {
						t.Fatal(err)
					}
					got, err := checkpoint.LoadReads(dir, st.readsHash)
					if err != nil {
						t.Fatal(err)
					}
					lo, hi := min(rank*block, pairs), min((rank+1)*block, pairs)
					want := 2 * (hi - lo)
					if rank == p-1 {
						want += len(reads) % 2
					}
					if st.readOffset != 2*lo || len(got) != want {
						t.Errorf("P=%d %s step %d rank %d: %d reads at offset %d, want %d at %d", p, run, step.Seq, rank, len(got), st.readOffset, want, 2*lo)
					}
				}
			}
			if localized == 0 {
				t.Fatalf("P=%d %s: no step follows a localization", p, run)
			}
		}
		full := t.TempDir()
		fcfg := cfg
		fcfg.CheckpointDir = full
		base, err := Assemble(reads, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		check("uninterrupted", full)

		dir := t.TempDir()
		kcfg := cfg
		kcfg.CheckpointDir, kcfg.FailAfterStage, kcfg.FailAtIteration = dir, StageAlignment, 0
		if _, err := Assemble(reads, kcfg); !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("P=%d: killed run returned %v, want ErrFaultInjected", p, err)
		}
		rcfg := cfg
		rcfg.CheckpointDir, rcfg.ResumeFrom = dir, dir
		res, err := Assemble(reads, rcfg)
		if err != nil {
			t.Fatalf("P=%d: resume: %v", p, err)
		}
		assertSameRun(t, base, res)
		check("resumed", dir)
	}
}

// TestResumeIntoFreshDirectory resumes a killed run from its directory A
// into an empty directory B, deletes A, and resumes from B alone, which must
// reproduce the uninterrupted run. The resume into B either runs to the end
// or is killed again at its first barrier or inside its first step, before B
// records a step of its own: B's manifest names A's last step from the
// start, so B must hold that step's rank-state shards and the read shards
// they name before its first barrier.
func TestResumeIntoFreshDirectory(t *testing.T) {
	reads := ckptReads(t)
	cfg := testConfig(3)
	bcfg := cfg
	bcfg.CheckpointDir = t.TempDir()
	base, err := Assemble(reads, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 3} { // the resumed run's kill barrier; 0: none
		t.Run(fmt.Sprintf("barrier=%d", n), func(t *testing.T) {
			killedDir, freshDir := t.TempDir(), t.TempDir()
			kcfg := cfg
			kcfg.CheckpointDir, kcfg.FailAfterStage, kcfg.FailAtIteration = killedDir, StageAlignment, 1
			if _, err := Assemble(reads, kcfg); !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("killed run returned %v, want ErrFaultInjected", err)
			}
			rcfg := cfg
			rcfg.ResumeFrom, rcfg.CheckpointDir, rcfg.FailAtBarrier = killedDir, freshDir, n
			res, err := Assemble(reads, rcfg)
			if n == 0 {
				if err != nil {
					t.Fatalf("resume into a fresh directory: %v", err)
				}
				assertSameRun(t, base, res)
			} else if !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("resume into a fresh directory killed at barrier %d returned %v, want ErrFaultInjected", n, err)
			}
			if man, err := checkpoint.Load(freshDir); err != nil {
				t.Fatal(err)
			} else if n > 0 && len(man.Steps) != 10 {
				t.Fatalf("the kill at barrier %d left %d steps in the fresh directory, want the 10 it resumed", n, len(man.Steps))
			}

			if err := os.RemoveAll(killedDir); err != nil {
				t.Fatal(err)
			}
			rcfg.ResumeFrom, rcfg.FailAtBarrier = freshDir, 0
			if res, err = Assemble(reads, rcfg); err != nil {
				t.Fatalf("resume from the fresh directory alone: %v", err)
			}
			assertSameRun(t, base, res)
		})
	}
}

// TestResumedFaultValidated pins fault validation against the resume point:
// a fault at or before the checkpoint's last step is on the schedule but is
// skipped, so it must be refused like any other fault that can never fire —
// not accepted and the run completed — while a fault past it still fires.
func TestResumedFaultValidated(t *testing.T) {
	reads := ckptReads(t)
	cfg := testConfig(3)
	dir := t.TempDir()
	kcfg := cfg
	kcfg.CheckpointDir, kcfg.FailAfterStage = dir, StageAlignment
	if _, err := Assemble(reads, kcfg); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("killed run returned %v, want ErrFaultInjected", err)
	}
	cases := []struct {
		name    string
		stage   string
		it      int
		refused bool
	}{
		{"before the resume point", StageDBGTraversal, 0, true},
		{"at the resume point", StageAlignment, 0, true},
		{"after the resume point", StageAlignment, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rcfg := cfg
			rcfg.ResumeFrom, rcfg.FailAfterStage, rcfg.FailAtIteration = dir, tc.stage, tc.it
			_, err := Assemble(reads, rcfg)
			if refused := err != nil && strings.Contains(err.Error(), "can never fire"); refused != tc.refused {
				t.Errorf("resume = %v, want refused = %v", err, tc.refused)
			}
			if fired := errors.Is(err, ErrFaultInjected); fired == tc.refused {
				t.Errorf("resume = %v, want fault fired = %v", err, !tc.refused)
			}
		})
	}
}

// TestScheduleMatchesManifestAndProgress pins the stage table against what a
// run actually does: the (iteration, stage) sequence enumerated from the
// table's scheduled predicates must equal both the manifest's step sequence
// of a checkpointed run and the Config.Progress event sequence, for every
// configuration axis that changes the schedule.
func TestScheduleMatchesManifestAndProgress(t *testing.T) {
	reads := ckptReads(t)
	_, twoLib := twoLibraryCommunity(t)
	cases := []struct {
		name  string
		reads []seq.Read
		cfg   Config
		// want, when set, is the literal schedule: it guards the table itself,
		// which the enumeration below takes on trust.
		want string
	}{
		{name: "default", reads: reads, cfg: testConfig(3),
			want: "0:kmer_analysis 0:dbg_traversal 0:contig_refine 0:alignment 0:local_assembly " +
				"1:kmer_analysis 1:kmer_merge 1:dbg_traversal 1:contig_refine 1:alignment 1:local_assembly 1:scaffolding"},
		{name: "no local assembly", reads: reads, cfg: func() Config { c := testConfig(3); c.LocalAssembly = false; return c }()},
		{name: "no scaffolding", reads: reads, cfg: func() Config { c := testConfig(3); c.Scaffolding = false; return c }()},
		{name: "single k", reads: reads, cfg: func() Config { c := testConfig(3); c.KMax = c.KMin; return c }(),
			want: "0:kmer_analysis 0:dbg_traversal 0:contig_refine 0:alignment 0:local_assembly 0:scaffolding"},
		{name: "two libraries", reads: twoLib, cfg: twoLibraryConfig(3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			norm := tc.cfg.withDefaults()
			nIter := len(norm.KValues())
			var table []string
			for it := 0; it < nIter; it++ {
				for _, sg := range stages {
					if sg.scheduled(norm, it, nIter) {
						table = append(table, fmt.Sprintf("%d:%s", it, sg.name))
					}
				}
			}
			if tc.want != "" && strings.Join(table, " ") != tc.want {
				t.Errorf("table schedule = %v, want %s", table, tc.want)
			}

			cfg := tc.cfg
			cfg.CheckpointDir = t.TempDir()
			var events []string
			var records []ProgressEvent
			cfg.Progress = func(ev ProgressEvent) {
				events = append(events, fmt.Sprintf("%d:%s", ev.Iteration, ev.Stage))
				records = append(records, ev)
			}
			res, err := Assemble(tc.reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Steps, records) {
				t.Errorf("Result.Steps = %+v, progress events = %+v", res.Steps, records)
			}
			man, err := checkpoint.Load(cfg.CheckpointDir)
			if err != nil {
				t.Fatal(err)
			}
			var steps []string
			for _, s := range man.Steps {
				steps = append(steps, fmt.Sprintf("%d:%s", s.Iteration, s.Stage))
			}
			if !slices.Equal(steps, table) {
				t.Errorf("manifest steps = %v, table schedule = %v", steps, table)
			}
			if !slices.Equal(events, table) {
				t.Errorf("progress events = %v, table schedule = %v", events, table)
			}
		})
	}
}

// fullRankState returns a fixed rank state with every optional section
// present and no empty slice.
func fullRankState(t testing.TB) rankState {
	return rankState{
		ranks: 5, rank: 3, it: 2, stage: stageIdx(t, StageScaffolding),
		clock: 0.3141592653589793, resident: 987654321,
		readsHash:  checkpoint.HashBytes([]byte("p7/1 p7/2 solo")),
		readOffset: 14, shippedReadBytes: 212,
		alignedFrac: 0.9375,
		hasAligns:   true,
		aligns: []aligner.Alignment{
			{ReadIdx: 14, ReadID: "p7/1", LibID: 1, ContigID: 9, ContigLen: 120, ContigPos: -3, Reverse: true, Matches: 9, Mismatch: 1, AlignLen: 10},
			{ReadIdx: 15, ReadID: "p7/2", LibID: 1, ContigID: 10, ContigLen: 64, ContigPos: 17, Matches: 10, AlignLen: 10},
		},
		hasContigs: true,
		contigs: []dbg.Contig{
			{ID: 9, Seq: []byte("ACGTACGTACGTAAACCC"), Depth: 6.5},
			{ID: 10, Seq: []byte("TTGACCA"), Depth: 1.25},
		},
		hasCounts: true,
		counts: []seq.KmerCount{
			{Kmer: seq.MustKmer("ACGTACGTACGTACGTACGTA"), Count: 7, Left: seq.ExtCounts{1, 2, 3, 4}, Right: seq.ExtCounts{4, 3, 2, 1}},
			{Kmer: seq.MustKmer("CCGTACGTACGTACGTACGTA"), Count: 2},
		},
		scaffolds: []scaffold.Scaffold{
			{ID: 0, Seq: []byte("ACGTNNNNACGT"), ContigIDs: []int{10, 9}, Gaps: 1, GapsClosed: 0},
			{ID: 1, Seq: []byte("GGGG"), ContigIDs: []int{3}},
		},
		rounds: []RoundStats{
			{Library: "pe", LibIndex: 1, InsertSize: 300, InputContigs: 40, Scaffolds: 12, AcceptedLinks: 9},
			{Library: "mp", LibIndex: 0, InsertSize: 1500, InputContigs: 12, Scaffolds: 5, AcceptedLinks: 4},
		},
		steps: []ProgressEvent{
			{Stage: StageKmerAnalysis, K: 21, Seconds: 0.125, SimSeconds: 0.125, ResidentBytes: 4096,
				Messages: 56, OffNodeMessages: 32, BytesSent: 70000, OffNodeBytes: 40000, Barriers: 24, BarrierWait: 0.03125},
			{Stage: StageScaffolding, Iteration: 2, K: 45, Seconds: 0.0625, SimSeconds: 0.3141592653589793, ResidentBytes: 987654321,
				Messages: 1 << 40, OffNodeMessages: 3, BytesSent: 1<<64 - 1, OffNodeBytes: 5, RemoteGets: 77, Barriers: 123, BarrierWait: 1e-7},
		},
	}
}

// TestRankStateShardPin pins the shard wire format: a fixed, fully populated
// rank state must encode to a captured SHA-256, so "shard bytes unchanged" —
// which cross-commit resume depends on — is checked, not promised. A
// deliberate format change bumps rankStateMagic and re-captures the literal.
// It was re-captured (from 978 bytes, 207eaec2…) for format v3, which
// dropped the unread pipeline scalars, the scaffolding counters and the
// per-rank scaffold shard, and added rank 0's step records. It was
// re-captured (from 949 bytes, f7e29426…) for format v4, which carries the
// hash of the rank's read shard in place of its reads. It was last
// re-captured (from 879 bytes, 28042f06…) for format v5, which adds six
// traffic columns, 48 bytes, to each of the two step records. It was last
// re-captured (from 975 bytes, 8a375e36…) for format v6, which adds the
// barrier-wait column, 8 bytes, to each of the two step records.
func TestRankStateShardPin(t *testing.T) {
	st := fullRankState(t)
	data := encodeRankState(&st)
	const wantLen, wantSHA = 991, "a5a0dd053e9528d0cd10b82a5d35ed0ca11077b2e099b4ae9930f0a9e5be33ad"
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSHA {
		t.Errorf("shard = %d bytes, sha256 %s; want %d bytes, sha256 %s", len(data), got, wantLen, wantSHA)
	}
	dec, err := decodeRankState(data)
	if err != nil {
		t.Fatalf("pinned shard failed to decode: %v", err)
	}
	if !reflect.DeepEqual(*dec, st) {
		t.Errorf("decoded state differs from the encoded one:\n got %+v\nwant %+v", *dec, st)
	}
}

// checkRecord makes the assertions of internal/checkpoint's TestCodecRoundTrip
// (whose helper a test in another package cannot reach) over one of this
// package's field lists: round trip, canonical re-encoding, an error at every
// proper prefix, encoded size at or above the reflective wire size, and a
// Slice allocation bound equal to the encoded size of the zero record.
func checkRecord[T any](t *testing.T, fields func(*checkpoint.Codec, *T), sample T) {
	encode := func(v *T) []byte {
		var e checkpoint.Enc
		fields(e.Codec(), v)
		return e.Bytes()
	}
	enc := encode(&sample)
	d := checkpoint.NewDec(enc)
	var got T
	fields(d.Codec(), &got)
	if err := d.Done(); err != nil {
		t.Fatalf("decoding the sample: %v", err)
	}
	if !reflect.DeepEqual(got, sample) {
		t.Errorf("round trip: got %+v want %+v", got, sample)
	}
	if re := encode(&got); !bytes.Equal(re, enc) {
		t.Errorf("re-encoding differs from the %d bytes consumed", len(enc))
	}
	for cut := range enc {
		d := checkpoint.NewDec(enc[:cut])
		fields(d.Codec(), new(T))
		if d.Done() == nil {
			t.Errorf("decoded successfully from %d of %d bytes", cut, len(enc))
		}
	}
	if min := pgas.WireSizeOf(sample); len(enc) < min {
		t.Errorf("encoded in %d bytes < reflective bound %d", len(enc), min)
	}

	zeros := make([]T, 3)
	var e checkpoint.Enc
	checkpoint.Slice(e.Codec(), &zeros, fields)
	if want := 8 + len(zeros)*len(encode(new(T))); len(e.Bytes()) != want {
		t.Fatalf("%d zero records encode in %d bytes, want %d", len(zeros), len(e.Bytes()), want)
	}
	for missing := 0; missing <= 1; missing++ {
		d := checkpoint.NewDec(e.Bytes()[:len(e.Bytes())-missing])
		var xs []T
		checkpoint.Slice(d.Codec(), &xs, fields)
		refused := d.Done() != nil && strings.Contains(d.Done().Error(), "implausible element count")
		if refused != (missing == 1) {
			t.Errorf("with %d bytes missing the count was refused = %v (%v)", missing, refused, d.Done())
		}
	}
}

// TestRankStateRecords runs the codec table's assertions over the three
// field lists this package owns.
func TestRankStateRecords(t *testing.T) {
	t.Run("round stats", func(t *testing.T) {
		checkRecord(t, roundStatsFields,
			RoundStats{Library: "pe", LibIndex: 1, InsertSize: 300, InputContigs: 40, Scaffolds: 12, AcceptedLinks: 9})
	})
	t.Run("step record", func(t *testing.T) {
		checkRecord(t, progressEventFields,
			ProgressEvent{Stage: StageAlignment, Iteration: 1, K: 33, Seconds: 0.0125, SimSeconds: 0.035, ResidentBytes: 123456,
				Messages: 90, OffNodeMessages: 60, BytesSent: 4321, OffNodeBytes: 2100, RemoteGets: 12, Barriers: 30})
	})
	t.Run("rank state", func(t *testing.T) {
		checkRecord(t, func(c *checkpoint.Codec, st *rankState) { st.fields(c) }, fullRankState(t))
	})
}

// TestManifestHeadPin pins a whole checkpointed run: the manifest head chains
// the config hash, the input hash and the hash of every rank's shard at every
// step, so this one constant — captured by running this body at the commit
// before the field lists replaced the mirrored encoders and decoders — moves
// if configHash, inputHash or any shard byte of any stage does.
// TestRankStateShardPin pins one synthetic state; this pins what a run writes.
// It was re-captured (from cbd38c63…) when global IDs came to name their
// owner: every stored contig ID, alignment contig ID and rank clock moved,
// while the shard layout did not.
// A deliberate format change (ROADMAP item 3's golden bump) re-captures it,
// and so does a change of the simulated clock, which every shard carries in
// its rank clocks: it was re-captured (from 7609ad3d…) when de Bruijn
// traversal began finding path starts with one claim exchange instead of a
// remote Get per vertex orientation. It was re-captured (from ff40d341…) for
// shard format v3: the same run and clocks, fewer fields per shard and rank
// 0's step records added. It was re-captured (from 385e02b0…) when read
// localization began block-partitioning pairs in contig order instead of
// shipping them to their contig's owner: the localized read shards, the
// alignments, the contigs and the rank clocks all moved; the layout did not.
// It was re-captured (from ce008800…) when de Bruijn traversal began ranking
// its paths by pointer doubling instead of walking them: the same contigs and
// shards, but every rank clock after the first traversal moved.
// It was re-captured (from c6507fb9…) when contigs came to stay on their
// content-hash owner instead of being striped over the ranks by size: every
// contig shard holds other contigs under other IDs, the localized reads and
// alignments follow, and the rank clocks moved; the layout did not.
// It was re-captured (from f33c4e34…) when k-mer analysis lost its unused
// heavy-hitter sketch and the tree merge of it: the same shards, but every
// rank clock after the first k-mer analysis moved.
// It was re-captured (from 9d031ec5…) when the stages stopped all-reducing
// counters nothing read: the same shards, but every rank clock after the
// first contig refinement moved.
// It was re-captured (from 8354f3b4…) when the dht Updater began delivering
// its updates by one owner-routed exchange per Flush: the same shards, but
// every rank clock after the first contig refinement moved.
// It was re-captured (from 95e7341f…) when the aligner began asking seed
// owners by exchange instead of reading the seed index one-sidedly: the same
// shards, but every rank clock after the first alignment moved.
// It was re-captured (from 7ddf7589…) when contig-graph refinement began
// pushing neighbour views, tombstones and links by exchange instead of
// reading the junction index and neighbour contigs one-sidedly: the same
// shards, but every rank clock after the first contig refinement moved.
// It was re-captured (from 6bcaf3f1…) when the k-mer tables came to be owned
// by minimizer and k-mer analysis began shipping supermers: every counts
// shard holds other k-mers, the Bloom filter admits other false positives,
// and every rank clock moved; the layout did not.
// It was re-captured (from 63e24bf1…) when the aligner stopped re-extending a
// reverse-strand read once per seed and de Bruijn traversal began doubling
// over segments and emitting each path at its start first by (index, owner):
// the same shards, but every rank clock after the first traversal moved.
// It was re-captured (from 5122744d…) when the aligner's seed index came to
// be owned by minimizer instead of by Kmer.Hash: the same shards, but every
// rank clock after the first alignment moved.
// It was re-captured (from d7388d48…) for shard format v4: the same run and
// clocks, but every rank-state shard carries its read shard's hash in place
// of the reads.
// It was re-captured (from ae2cf096…) for two changes together: an exchange
// charges the one barrier it runs, so every rank clock after the first
// k-mer analysis moved, and shard format v5 gives rank 0's step records their
// traffic columns.
// It was re-captured (from 5d823a61…) for three changes together: the seed
// index and the k-mer merge cut their k-mers from contig pieces dealt out
// round-robin (one more exchange each, other senders), and the alignment
// stage no longer all-reduces the read count, so every rank clock after the
// first alignment moved; and shard format v6 gives rank 0's step records
// their barrier-wait column. The shards' contents did not move.
// It was re-captured (from fc1db274…) when AllReduce and ExScan stopped
// pricing their host barriers, pgas.Shared replaced Broadcast and read
// localization stopped all-reducing the pair count: every rank clock after
// the first k-mer analysis's first all-reduce moved, and with it the clocks
// and step records in the shards. Their reads, counts and contigs did not
// move.
// It was re-captured (from 243b7db5…) when the aligner, local assembly and
// scaffolding began fetching each pass's contigs with one vectored get per
// owner and local assembly dropped its three barriers that ordered nothing:
// every rank clock after the first alignment moved, and with it the clocks
// and step records (message, get and barrier counts) in the shards. Their
// reads, counts and contigs did not move.
func TestManifestHeadPin(t *testing.T) {
	cfg := testConfig(3)
	cfg.CheckpointDir = t.TempDir()
	res, err := Assemble(ckptReads(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const want = "d66eb3d40a37627412789e2512c008190a23627b24ba06587b2a953830d1784f"
	if res.ManifestHead != want {
		t.Errorf("manifest head = %s, want %s", res.ManifestHead, want)
	}
}

// TestConfigHashPin: the identity of a default configuration, captured at
// ed1df1b. With TestManifestHeadPin it is the proof that a checkpoint written
// before a Config field was retired (its byte is still written, as false)
// resumes after.
func TestConfigHashPin(t *testing.T) {
	const want = "4dbcf73c0a2ffd6f5fe5381ae4506edb9c5900efd9a7db7ff9221e02de3b17cf"
	if got := ConfigHash(DefaultConfig(8)); got != want {
		t.Errorf("ConfigHash(DefaultConfig(8)) = %s, want %s", got, want)
	}
}

// FuzzRankStateDecode drives the per-rank shard decoder over arbitrary
// bytes: it must never panic, and any input it accepts must re-encode to
// exactly the accepted bytes (the format is canonical).
func FuzzRankStateDecode(f *testing.F) {
	full := rankState{
		ranks: 3, rank: 1, it: 1, stage: stageIdx(f, StageAlignment),
		clock: 12.375, resident: 4096,
		readsHash:  checkpoint.HashBytes([]byte("two reads")),
		readOffset: 2, shippedReadBytes: 96,
		alignedFrac: 0.875,
		hasAligns:   true,
		aligns:      []aligner.Alignment{{ReadIdx: 2, ReadID: "pair1/1", ContigID: 0, ContigLen: 30, Matches: 9, AlignLen: 9}},
		hasContigs:  true,
		contigs:     []dbg.Contig{{ID: 0, Seq: []byte("ACGTACGTACGT"), Depth: 2.5}},
	}
	f.Add(encodeRankState(&full))

	counts := rankState{
		ranks: 1, rank: 0, it: 0, stage: stageIdx(f, StageKmerAnalysis),
		clock: 1.5, resident: 128,
		readsHash: checkpoint.HashBytes([]byte("one read")),
		hasCounts: true,
		counts:    []seq.KmerCount{{Kmer: seq.MustKmer("ACGTACGTACGTACGTACGTA"), Count: 3}},
	}
	f.Add(encodeRankState(&counts))

	scaf := rankState{
		ranks: 2, rank: 0, it: 1, stage: stageIdx(f, StageScaffolding),
		clock: 99.25, resident: 1 << 20,
		readsHash: checkpoint.HashBytes(nil),
		scaffolds: []scaffold.Scaffold{{ID: 0, Seq: []byte("ACGTNNNACGT"), ContigIDs: []int{1, 0}, Gaps: 1}},
		rounds:    []RoundStats{{Library: "pe", InsertSize: 220, InputContigs: 4, Scaffolds: 2, AcceptedLinks: 3}},
		steps: []ProgressEvent{{Stage: StageScaffolding, Iteration: 1, K: 33, Seconds: 0.5, SimSeconds: 99.25, ResidentBytes: 1 << 20,
			Messages: 14, OffNodeMessages: 6, BytesSent: 900, OffNodeBytes: 300, RemoteGets: 2, Barriers: 18}},
	}
	f.Add(encodeRankState(&scaf))
	f.Add([]byte{})
	f.Add([]byte("mhm-rank-state-v1")) // pre-SampleID shard magic: must be rejected, never mis-decoded
	f.Add([]byte("mhm-rank-state-v2")) // pre-v3 shard magic: the same
	f.Add([]byte("mhm-rank-state-v3")) // pre-v4 shard magic, reads inline: the same
	f.Add([]byte("mhm-rank-state-v4")) // pre-v5 shard magic, step records without traffic: the same
	f.Add([]byte(rankStateMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeRankState(data)
		if err != nil {
			return
		}
		if got := encodeRankState(st); !bytes.Equal(got, data) {
			t.Fatalf("accepted input does not re-encode canonically (%d vs %d bytes)", len(got), len(data))
		}
	})
}
