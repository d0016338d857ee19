package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mhmgo/internal/aligner"
	"mhmgo/internal/dbg"
	"mhmgo/internal/pgas"
	"mhmgo/internal/scaffold"
	"mhmgo/internal/seq"
)

func TestManifestChain(t *testing.T) {
	m := New("cfg-hash", "input-hash", 3)
	root := m.Head()
	if root == "" {
		t.Fatal("empty head on fresh manifest")
	}
	s1 := m.AppendStep(0, "kmer_analysis", 21, []string{"a", "b", "c"})
	if s1.PrevHash != root {
		t.Errorf("first step prev %q != root %q", s1.PrevHash, root)
	}
	s2 := m.AppendStep(0, "dbg_traversal", 21, []string{"d", "e", "f"})
	if s2.PrevHash != s1.EntryHash {
		t.Error("second step does not chain onto the first")
	}
	if m.Head() != s2.EntryHash {
		t.Error("head is not the last entry hash")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify on a well-formed chain: %v", err)
	}
	if err := m.ValidateFor("cfg-hash", "input-hash", 3); err != nil {
		t.Fatalf("ValidateFor with matching identity: %v", err)
	}

	// An identically rebuilt manifest reaches the identical head.
	m2 := New("cfg-hash", "input-hash", 3)
	m2.AppendStep(0, "kmer_analysis", 21, []string{"a", "b", "c"})
	m2.AppendStep(0, "dbg_traversal", 21, []string{"d", "e", "f"})
	if m2.Head() != m.Head() {
		t.Error("identical histories produced different heads")
	}

	// Any change to the identity or history changes the head.
	m3 := New("cfg-hash2", "input-hash", 3)
	if m3.Head() == root {
		t.Error("different config hash produced the same root")
	}
}

func TestManifestValidateForMismatches(t *testing.T) {
	m := New("cfg", "input", 3)
	m.AppendStep(0, "kmer_analysis", 21, []string{"a", "b", "c"})
	cases := []struct {
		name            string
		cfgHash, inHash string
		ranks           int
		want            error
	}{
		{"config", "other", "input", 3, ErrConfigMismatch},
		{"input", "cfg", "other", 3, ErrInputMismatch},
		{"ranks", "cfg", "input", 4, ErrRankMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := m.ValidateFor(tc.cfgHash, tc.inHash, tc.ranks)
			if !errors.Is(err, tc.want) {
				t.Errorf("ValidateFor = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestManifestVerifyDetectsTampering(t *testing.T) {
	fresh := func() *Manifest {
		m := New("cfg", "input", 2)
		m.AppendStep(0, "kmer_analysis", 21, []string{"a", "b"})
		m.AppendStep(0, "dbg_traversal", 21, []string{"c", "d"})
		return m
	}
	cases := []struct {
		name   string
		tamper func(m *Manifest)
	}{
		{"shard hash edited", func(m *Manifest) { m.Steps[0].ShardHashes[0] = "x" }},
		{"step dropped", func(m *Manifest) { m.Steps = m.Steps[1:] }},
		{"steps swapped", func(m *Manifest) { m.Steps[0], m.Steps[1] = m.Steps[1], m.Steps[0] }},
		{"iteration edited", func(m *Manifest) { m.Steps[1].Iteration = 5 }},
		{"stage renamed", func(m *Manifest) { m.Steps[1].Stage = "scaffolding" }},
		{"shard count vs ranks", func(m *Manifest) { m.Ranks = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := fresh()
			tc.tamper(m)
			if err := m.Verify(); !errors.Is(err, ErrBadChain) && !errors.Is(err, ErrBadManifest) {
				t.Errorf("Verify after tampering = %v, want chain/manifest error", err)
			}
		})
	}
}

func TestManifestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	m := New("cfg", "input", 2)
	m.AppendStep(0, "kmer_analysis", 21, []string{"a", "b"})
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("loaded manifest does not verify: %v", err)
	}
	if got.Head() != m.Head() {
		t.Error("head changed across save/load")
	}

	if _, err := Load(t.TempDir()); !errors.Is(err, ErrBadManifest) {
		t.Errorf("Load from empty dir = %v, want ErrBadManifest", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrBadManifest) {
		t.Errorf("Load of malformed JSON = %v, want ErrBadManifest", err)
	}
}

func TestShardReadWrite(t *testing.T) {
	dir := t.TempDir()
	path := ShardPath(dir, 0, "kmer_analysis", 1)
	payload := []byte("some shard payload")
	hash, err := WriteShard(path, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadShard(path, hash)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("ReadShard = %q, want %q", got, payload)
	}
	// The hash WriteShard streams is the hash of the bytes it wrote.
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := HashBytes(file); hash != want {
		t.Errorf("WriteShard returned %s, the file read back hashes to %s", hash, want)
	}
	if want := shardMagic + string(payload); string(file) != want {
		t.Errorf("shard file = %q, want %q", file, want)
	}

	if _, err := ReadShard(ShardPath(dir, 0, "kmer_analysis", 2), hash); !errors.Is(err, ErrMissingShard) {
		t.Errorf("missing shard = %v, want ErrMissingShard", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(path, hash); !errors.Is(err, ErrCorruptShard) {
		t.Errorf("corrupted shard = %v, want ErrCorruptShard", err)
	}
}

// TestReadShards pins the content-addressed read shard: it is named by the
// hash of its file, written once whatever the number of writers, read back
// as the same reads, and refused when missing, misnamed or altered.
func TestReadShards(t *testing.T) {
	dir := t.TempDir()
	reads := []seq.Read{
		{ID: "p1/1", Seq: []byte("ACGTACGT"), Qual: []byte("IIIIIIII"), LibID: 1, SampleID: 2},
		{ID: "p1/2", Seq: []byte("TTGCA"), Qual: []byte{}},
	}
	hash, err := WriteReads(dir, reads)
	if err != nil {
		t.Fatal(err)
	}
	path := ReadsPath(dir, hash)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := HashBytes(file); got != hash {
		t.Errorf("read shard %s hashes to %s", hash, got)
	}
	var e Enc
	Slice(e.Codec(), &reads, ReadFields)
	if want := shardMagic + string(e.Bytes()); string(file) != want {
		t.Error("read shard is not the magic followed by the reads' Slice encoding")
	}
	got, err := LoadReads(dir, hash)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reads) {
		t.Errorf("LoadReads = %+v, want %+v", got, reads)
	}

	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := WriteReads(dir, slices.Clone(reads)); err != nil || again != hash {
		t.Fatalf("rewriting the same reads = %s, %v; want %s", again, err, hash)
	}
	if after, err := os.Stat(path); err != nil || !os.SameFile(before, after) {
		t.Error("an existing read shard was written again")
	}
	if other, err := WriteReads(dir, reads[:1]); err != nil || other == hash {
		t.Errorf("another read set = %s, %v; want a second name", other, err)
	}

	if _, err := LoadReads(t.TempDir(), hash); !errors.Is(err, ErrMissingShard) {
		t.Errorf("missing read shard = %v, want ErrMissingShard", err)
	}
	for _, name := range []string{"", "../" + hash[3:], strings.ToUpper(hash), hash[:62]} {
		if _, err := LoadReads(dir, name); !errors.Is(err, ErrCorruptShard) {
			t.Errorf("read shard name %q = %v, want ErrCorruptShard", name, err)
		}
	}
	file[len(file)-1] ^= 0x01
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReads(dir, hash); !errors.Is(err, ErrCorruptShard) {
		t.Errorf("flipped read shard byte = %v, want ErrCorruptShard", err)
	}
}

// recordCase is one row of the codec table, its record type erased.
type recordCase struct {
	name string
	// seed is the sample's encoding.
	seed []byte
	// check makes TestCodecRoundTrip's assertions over the sample.
	check func(t *testing.T)
	// recode walks one record off d and returns its re-encoding.
	recode func(d *Dec) []byte
}

func record[T any](name string, fields func(*Codec, *T), sample T) recordCase {
	encode := func(v *T) []byte {
		var e Enc
		fields(e.Codec(), v)
		return e.Bytes()
	}
	recode := func(d *Dec) []byte {
		var v T
		fields(d.Codec(), &v)
		return encode(&v)
	}
	seed := encode(&sample)
	return recordCase{name: name, seed: seed, recode: recode, check: func(t *testing.T) {
		d := NewDec(seed)
		var got T
		fields(d.Codec(), &got)
		if err := d.Done(); err != nil {
			t.Fatalf("decoding the sample: %v", err)
		}
		if !reflect.DeepEqual(got, sample) {
			t.Errorf("round trip: got %+v want %+v", got, sample)
		}
		if re := encode(&got); !bytes.Equal(re, seed) {
			t.Errorf("re-encoding differs from the %d bytes consumed", len(seed))
		}
		for cut := range seed {
			d := NewDec(seed[:cut])
			recode(d)
			if d.err == nil {
				t.Errorf("decoded successfully from %d of %d bytes", cut, len(seed))
			}
		}
		if min := pgas.WireSizeOf(sample); len(seed) < min {
			t.Errorf("encoded in %d bytes < reflective bound %d", len(seed), min)
		}

		// Slice's allocation bound is the encoded size of the zero record: a
		// count of n passes over exactly n zero records and is refused, as a
		// count and so before any allocation, over one byte fewer.
		zeros := make([]T, 3)
		var e Enc
		Slice(e.Codec(), &zeros, fields)
		if want := 8 + len(zeros)*len(encode(new(T))); len(e.Bytes()) != want {
			t.Fatalf("%d zero records encode in %d bytes, want %d", len(zeros), len(e.Bytes()), want)
		}
		for missing := 0; missing <= 1; missing++ {
			d := NewDec(e.Bytes()[:len(e.Bytes())-missing])
			var xs []T
			Slice(d.Codec(), &xs, fields)
			refused := d.err != nil && strings.Contains(d.err.Error(), "implausible element count")
			if refused != (missing == 1) {
				t.Errorf("with %d bytes missing the count was refused = %v (%v)", missing, refused, d.err)
			}
		}
	}}
}

// records is the codec table: every record type a shard carries, with a
// sample value. TestCodecRoundTrip and FuzzDecRecords both run over it.
var records = []recordCase{
	record("read", ReadFields,
		seq.Read{ID: "pair1/1", Seq: []byte("ACGTACGTA"), Qual: []byte("IIIIIIIII"), LibID: 2, SampleID: 3}),
	record("alignment", AlignmentFields,
		aligner.Alignment{ReadIdx: 12, ReadID: "pair1/1", LibID: 1, ContigID: 3,
			ContigLen: 500, ContigPos: -4, Reverse: true, Matches: 70, Mismatch: 2, AlignLen: 72}),
	record("contig", ContigFields,
		dbg.Contig{ID: 7, Seq: []byte("ACGTTT"), Depth: 3.25}),
	record("scaffold", ScaffoldFields,
		scaffold.Scaffold{ID: 2, Seq: []byte("ACGTNNNACGT"), ContigIDs: []int{4, 9}, Gaps: 1, GapsClosed: 1}),
	record("k-mer count", KmerCountFields,
		seq.KmerCount{Kmer: seq.MustKmer("ACGTACGTACGTACGTACGTA"), Count: 9,
			Left: seq.ExtCounts{1, 0, 2, 0}, Right: seq.ExtCounts{0, 5, 0, 1}}),
	record("read slice", func(c *Codec, xs *[]seq.Read) { Slice(c, xs, ReadFields) },
		[]seq.Read{{ID: "r/1", Seq: []byte("ACGT"), Qual: []byte{}}, {Seq: []byte("TTGCA"), Qual: []byte("IIIII"), SampleID: 1}}),
}

// TestCodecRoundTrip pins the field lists: every record decodes back to
// itself and re-encodes to the bytes it was decoded from, every proper prefix
// of its encoding is an error, the encoded size is never below the pgas
// reflective lower bound (so checkpoint bytes can stand in for wire bytes in
// cost arguments), and the bound Slice allocates under is the encoded size of
// the zero record. internal/core runs the same assertions over its own two
// lists (TestRankStateRecords).
func TestCodecRoundTrip(t *testing.T) {
	for _, rc := range records {
		t.Run(rc.name, rc.check)
	}
}

// TestHashSlice pins HashSlice to the encoding it claims to stream.
func TestHashSlice(t *testing.T) {
	for _, reads := range [][]seq.Read{
		nil,
		{{ID: "r/1", Seq: []byte("ACGT")}},
		{{Seq: []byte("ACGT"), Qual: []byte("IIII"), LibID: 1}, {ID: "x", Seq: []byte("T"), Qual: []byte{}, SampleID: 7}},
	} {
		var e Enc
		Slice(e.Codec(), &reads, ReadFields)
		if got, want := HashSlice(reads, ReadFields), HashBytes(e.Bytes()); got != want {
			t.Errorf("HashSlice of %d reads = %s, hash of their encoding = %s", len(reads), got, want)
		}
	}
}

// TestDecRejectsMalformed pins decode-side validation: truncation, bad bool
// bytes, implausible counts and dirty k-mer packing all error out.
func TestDecRejectsMalformed(t *testing.T) {
	var e Enc
	e.Str("hello")
	enc := e.Bytes()
	for cut := 0; cut < len(enc); cut++ {
		if d := NewDec(enc[:cut]); d.Str() != "" || d.err == nil {
			t.Errorf("Str decoded successfully from %d of %d bytes", cut, len(enc))
		}
	}

	var eb Enc
	eb.U8(2)
	if d := NewDec(eb.Bytes()); d.Bool() || d.err == nil {
		t.Error("bool byte 2 accepted")
	}

	var ec Enc
	ec.Int(1 << 40) // plausible-looking huge element count
	if d := NewDec(ec.Bytes()); d.Count(8) != 0 || d.err == nil {
		t.Error("implausible count accepted")
	}
	var en Enc
	en.Int(-1)
	if d := NewDec(en.Bytes()); d.Count(8) != 0 || d.err == nil {
		t.Error("negative count accepted")
	}

	// A k-mer with bits set outside the masked region can never be produced
	// by the encoder and must be rejected.
	recodeKmerCount := func(kc seq.KmerCount) error {
		var e Enc
		KmerCountFields(e.Codec(), &kc)
		d := NewDec(e.Bytes())
		KmerCountFields(d.Codec(), &kc)
		return d.err
	}
	if recodeKmerCount(seq.KmerCount{Kmer: seq.Kmer{Hi: ^uint64(0), Lo: ^uint64(0), K: 21}, Count: 1}) == nil {
		t.Error("k-mer with dirty packing bits accepted")
	}
	if recodeKmerCount(seq.KmerCount{Kmer: seq.Kmer{K: 200}, Count: 1}) == nil {
		t.Error("k-mer length 200 accepted")
	}

	// Trailing garbage is caught by Done.
	var et Enc
	et.U8(1)
	d := NewDec(et.Bytes())
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("Done with trailing bytes = %v", err)
	}
}

// TestDecLatchesFirstError pins the latch the record walks rely on: after a
// failed read every primitive returns its zero value without consuming
// anything, Count returns 0 (so no loop spins and nothing is allocated), and
// Err and Done keep reporting the first failure.
func TestDecLatchesFirstError(t *testing.T) {
	var e Enc
	e.U8(7) // an invalid bool
	e.Int(2)
	e.Str("live bytes a failed decoder must not hand out")
	d := NewDec(e.Bytes())
	if d.Bool() || d.err == nil {
		t.Fatal("bool byte 7 accepted")
	}
	first, left := d.err, d.Remaining()
	if left == 0 {
		t.Fatal("nothing left to not consume")
	}
	if d.U8() != 0 || d.U32() != 0 || d.U64() != 0 || d.I64() != 0 || d.Int() != 0 || d.F64() != 0 ||
		d.Bool() || d.Blob() != nil || d.Str() != "" || d.Count(1) != 0 {
		t.Error("a failed decoder returned a non-zero value")
	}
	if _, err := d.Read(); err != first {
		t.Errorf("Read on a failed decoder = %v, want the first error", err)
	}
	var xs []int
	Slice(d.Codec(), &xs, (*Codec).Int)
	if xs != nil {
		t.Errorf("Slice allocated %d elements on a failed decoder", len(xs))
	}
	if d.Remaining() != left {
		t.Errorf("a failed decoder consumed %d bytes", left-d.Remaining())
	}
	if d.err != first || d.Done() != first {
		t.Errorf("err = %v, Done = %v, want the first error %v", d.err, d.Done(), first)
	}
}

// TestDecodedSlicesDoNotAlias pins the capped-slice guarantee: appending to
// one decoded blob must not overwrite the next record's bytes.
func TestDecodedSlicesDoNotAlias(t *testing.T) {
	var e Enc
	e.Blob([]byte("AAAA"))
	e.Blob([]byte("CCCC"))
	d := NewDec(e.Bytes())
	b1 := d.Blob()
	b1 = append(b1, 'X', 'X', 'X', 'X')
	_ = b1
	b2 := d.Blob()
	if err := d.err; err != nil {
		t.Fatal(err)
	}
	if string(b2) != "CCCC" {
		t.Errorf("append on earlier decoded slice corrupted later record: %q", b2)
	}
}
