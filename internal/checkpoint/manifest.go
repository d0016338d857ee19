package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"

	"mhmgo/internal/seq"
)

// Sentinel errors of resume validation. Each failure mode is distinct so a
// refused resume tells the operator exactly what diverged.
var (
	// ErrBadManifest marks a manifest that is missing, unreadable or not the
	// JSON document this version writes.
	ErrBadManifest = errors.New("checkpoint: manifest missing or malformed")
	// ErrBadChain marks a manifest whose step hash chain does not verify:
	// a step record was altered, reordered or truncated after it was written.
	ErrBadChain = errors.New("checkpoint: manifest hash chain broken")
	// ErrConfigMismatch marks a resume attempted with a configuration whose
	// content hash differs from the one the checkpoint was written under.
	ErrConfigMismatch = errors.New("checkpoint: config hash mismatch")
	// ErrInputMismatch marks a resume attempted with input reads whose
	// content hash differs from the checkpointed run's input.
	ErrInputMismatch = errors.New("checkpoint: input reads hash mismatch")
	// ErrRankMismatch marks a resume attempted at a different rank count:
	// shard ownership is per-rank, so P must match exactly.
	ErrRankMismatch = errors.New("checkpoint: rank count mismatch")
	// ErrMissingShard marks a step whose per-rank shard file is absent.
	ErrMissingShard = errors.New("checkpoint: missing shard file")
	// ErrCorruptShard marks a shard file whose bytes do not hash to the
	// value the manifest recorded, or that fails structural decoding.
	ErrCorruptShard = errors.New("checkpoint: corrupt shard file")
)

const (
	// Version identifies the checkpoint format; a manifest written by a
	// different version is refused.
	Version = 1
	// ManifestFile is the manifest's file name inside a checkpoint directory.
	ManifestFile = "MANIFEST.json"
	// shardMagic opens every shard file.
	shardMagic = "MHMCKPT1"
	// readsDir is the subdirectory of a checkpoint directory that holds the
	// read shards, each named by its content hash.
	readsDir = "reads"
)

// Step records one completed pipeline stage in the manifest: which stage of
// which k-iteration it was, the content hash of every rank's shard, and the
// chain fields. EntryHash = H(PrevHash ‖ step metadata ‖ StateHash), with
// the first step's PrevHash equal to the manifest root hash, so the head
// hash commits to the entire history of the run — inputs, config, rank
// count and every intermediate state.
type Step struct {
	Seq         int      `json:"seq"`
	Iteration   int      `json:"iteration"`
	Stage       string   `json:"stage"`
	K           int      `json:"k"`
	ShardHashes []string `json:"shard_hashes"`
	StateHash   string   `json:"state_hash"`
	PrevHash    string   `json:"prev_hash"`
	EntryHash   string   `json:"entry_hash"`
}

// Manifest is the content-hashed provenance record of a checkpointed run.
type Manifest struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
	InputHash  string `json:"input_hash"`
	Ranks      int    `json:"ranks"`
	Steps      []Step `json:"steps"`
}

// HashBytes returns the hex SHA-256 of b.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// New returns an empty manifest rooted in the given run identity.
func New(configHash, inputHash string, ranks int) *Manifest {
	return &Manifest{Version: Version, ConfigHash: configHash, InputHash: inputHash, Ranks: ranks}
}

// rootHash commits to the run identity: the chain anchor of the first step.
func (m *Manifest) rootHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "mhm-manifest-v%d|config=%s|input=%s|ranks=%d", m.Version, m.ConfigHash, m.InputHash, m.Ranks)
	return hex.EncodeToString(h.Sum(nil))
}

// Head returns the chain head: the last step's entry hash, or the root hash
// of a run that has completed no steps yet. Two runs with equal heads
// executed the identical pipeline prefix over identical inputs.
func (m *Manifest) Head() string {
	if len(m.Steps) == 0 {
		return m.rootHash()
	}
	return m.Steps[len(m.Steps)-1].EntryHash
}

// stateHash folds the per-rank shard hashes into one step state hash.
func stateHash(shardHashes []string) string {
	h := sha256.New()
	for _, sh := range shardHashes {
		io.WriteString(h, sh)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// entryHash chains one step onto its predecessor.
func entryHash(prev string, s *Step) string {
	h := sha256.New()
	fmt.Fprintf(h, "step|%d|%d|%s|%d|%s|%s", s.Seq, s.Iteration, s.Stage, s.K, prev, s.StateHash)
	return hex.EncodeToString(h.Sum(nil))
}

// AppendStep appends a completed step, computing its chain fields, and
// returns the appended record.
func (m *Manifest) AppendStep(iteration int, stage string, k int, shardHashes []string) Step {
	s := Step{
		Seq:         len(m.Steps),
		Iteration:   iteration,
		Stage:       stage,
		K:           k,
		ShardHashes: append([]string(nil), shardHashes...),
		PrevHash:    m.Head(),
	}
	s.StateHash = stateHash(s.ShardHashes)
	s.EntryHash = entryHash(s.PrevHash, &s)
	m.Steps = append(m.Steps, s)
	return s
}

// Verify recomputes the hash chain and returns ErrBadChain (with detail) on
// the first step whose recorded fields do not reproduce it.
func (m *Manifest) Verify() error {
	if m.Version != Version {
		return fmt.Errorf("%w: version %d, this build writes version %d", ErrBadManifest, m.Version, Version)
	}
	prev := m.rootHash()
	for i := range m.Steps {
		s := &m.Steps[i]
		if s.Seq != i {
			return fmt.Errorf("%w: step %d records seq %d", ErrBadChain, i, s.Seq)
		}
		if s.PrevHash != prev {
			return fmt.Errorf("%w: step %d prev hash does not match its predecessor", ErrBadChain, i)
		}
		if s.StateHash != stateHash(s.ShardHashes) {
			return fmt.Errorf("%w: step %d state hash does not match its shard hashes", ErrBadChain, i)
		}
		if s.EntryHash != entryHash(prev, s) {
			return fmt.Errorf("%w: step %d entry hash does not verify", ErrBadChain, i)
		}
		if len(s.ShardHashes) != m.Ranks {
			return fmt.Errorf("%w: step %d has %d shard hashes for %d ranks", ErrBadChain, i, len(s.ShardHashes), m.Ranks)
		}
		prev = s.EntryHash
	}
	return nil
}

// ValidateFor verifies the chain and then checks the manifest against the
// identity of the run attempting to resume. Each mismatch returns its own
// sentinel error.
func (m *Manifest) ValidateFor(configHash, inputHash string, ranks int) error {
	if err := m.Verify(); err != nil {
		return err
	}
	if m.ConfigHash != configHash {
		return fmt.Errorf("%w: checkpoint was written under config %.12s…, resume attempted with %.12s…",
			ErrConfigMismatch, m.ConfigHash, configHash)
	}
	if m.InputHash != inputHash {
		return fmt.Errorf("%w: checkpoint was written over input %.12s…, resume attempted with %.12s…",
			ErrInputMismatch, m.InputHash, inputHash)
	}
	if m.Ranks != ranks {
		return fmt.Errorf("%w: checkpoint was written at P=%d, resume attempted at P=%d",
			ErrRankMismatch, m.Ranks, ranks)
	}
	return nil
}

// Parse decodes a manifest from JSON bytes (no chain verification; call
// Verify or ValidateFor). It never panics on malformed input.
func Parse(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	return &m, nil
}

// Load reads and parses the manifest of a checkpoint directory.
func Load(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	return Parse(data)
}

// Save writes the manifest atomically (temp file + rename), so a kill during
// the write can never leave a torn manifest — the directory holds either the
// previous manifest or the new one.
func (m *Manifest) Save(dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(dir, ManifestFile), nil, data)
}

// ShardPath returns the shard file path of (step seq, stage, rank) inside a
// checkpoint directory.
func ShardPath(dir string, seq int, stage string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("step-%04d-%s", seq, stage), fmt.Sprintf("rank-%04d.ckpt", rank))
}

// WriteShard writes payload as a shard file (magic header + payload),
// atomically, creating the step directory as needed, and returns the content
// hash of the complete file — the value the manifest records for this shard.
// The header and payload are streamed into the file and the hash together,
// never copied into one buffer.
func WriteShard(path string, payload []byte) (hash string, err error) {
	h := sha256.New()
	if err := writeAtomic(path, h, []byte(shardMagic), payload); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ReadsPath returns the path of the read shard with content hash hash inside
// a checkpoint directory. A rank's read set changes only at the input and at
// each read localization, so it is written once per distinct set, named by
// its content, and every rank-state shard over it carries the hash.
func ReadsPath(dir, hash string) string {
	return filepath.Join(dir, readsDir, hash+".ckpt")
}

// WriteReads writes reads as a read shard (magic header + their Slice
// encoding) under its content hash in dir, unless a file of that name is
// already there, and returns the hash. The file is the one WriteShard would
// write, so ReadShard and LoadReads check it the same way.
func WriteReads(dir string, reads []seq.Read) (hash string, err error) {
	var e Enc
	Slice(e.Codec(), &reads, ReadFields)
	h := sha256.New()
	io.WriteString(h, shardMagic)
	h.Write(e.Bytes())
	hash = hex.EncodeToString(h.Sum(nil))
	path := ReadsPath(dir, hash)
	if _, err := os.Stat(path); err == nil {
		return hash, nil
	}
	return hash, writeAtomic(path, nil, []byte(shardMagic), e.Bytes())
}

// LoadReads reads back the read shard named hash in dir. A missing file is
// ErrMissingShard; a malformed name, bytes that do not hash to it or that do
// not decode to a read set are ErrCorruptShard.
func LoadReads(dir, hash string) ([]seq.Read, error) {
	if b, err := hex.DecodeString(hash); err != nil || len(b) != sha256.Size || hex.EncodeToString(b) != hash {
		return nil, fmt.Errorf("%w: read shard name %q is not a SHA-256", ErrCorruptShard, hash)
	}
	payload, err := ReadShard(ReadsPath(dir, hash), hash)
	if err != nil {
		return nil, err
	}
	var reads []seq.Read
	d := NewDec(payload)
	Slice(d.Codec(), &reads, ReadFields)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: read shard %.12s…: %v", ErrCorruptShard, hash, err)
	}
	return reads, nil
}

// ReadShard reads a shard file back and returns its payload. A missing file
// is ErrMissingShard; bytes that do not hash to wantHash, or that lack the
// format magic, are ErrCorruptShard.
func ReadShard(path, wantHash string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrMissingShard, path)
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrMissingShard, path, err)
	}
	if HashBytes(data) != wantHash {
		return nil, fmt.Errorf("%w: %s does not match its manifest hash", ErrCorruptShard, path)
	}
	if len(data) < len(shardMagic) || string(data[:len(shardMagic)]) != shardMagic {
		return nil, fmt.Errorf("%w: %s lacks the shard magic", ErrCorruptShard, path)
	}
	return data[len(shardMagic):], nil
}

// writeAtomic writes chunks to path via a temp file and rename, creating the
// directory as needed, and feeds them to h as well when h is not nil.
func writeAtomic(path string, h hash.Hash, chunks ...[]byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if h != nil {
			h.Write(c)
		}
		if _, err := tmp.Write(c); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
