package fastx

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mhmgo/internal/seq"
)

func TestDetectFormat(t *testing.T) {
	if DetectFormat(">x") != FormatFASTA {
		t.Error("'>' should detect FASTA")
	}
	if DetectFormat("@x") != FormatFASTQ {
		t.Error("'@' should detect FASTQ")
	}
	if DetectFormat("hello") != FormatUnknown {
		t.Error("junk should detect unknown")
	}
}

func TestReadFASTA(t *testing.T) {
	input := ">contig1 first contig\nACGT\nACGT\n>contig2\nTTTT\n"
	recs, err := ReadAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ID != "contig1" || recs[0].Desc != "first contig" {
		t.Errorf("record 0 header = %q %q", recs[0].ID, recs[0].Desc)
	}
	if string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("record 0 seq = %q", recs[0].Seq)
	}
	if string(recs[1].Seq) != "TTTT" {
		t.Errorf("record 1 seq = %q", recs[1].Seq)
	}
}

func TestReadFASTQ(t *testing.T) {
	input := "@r1 lane1\nACGT\n+\nIIII\n@r2\nTT\n+\n!!\n"
	recs, err := ReadAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ID != "r1" || string(recs[0].Seq) != "ACGT" || string(recs[0].Qual) != "IIII" {
		t.Errorf("record 0 = %+v", recs[0])
	}
	r := recs[1].ToRead()
	if r.ID != "r2" || string(r.Seq) != "TT" {
		t.Errorf("ToRead = %+v", r)
	}
}

func TestReadFASTQErrors(t *testing.T) {
	cases := []string{
		"@r1\nACGT\n+\nII\n",    // quality length mismatch
		"@r1\nACGT\nIIII\n",     // missing separator
		"junk\nACGT\n+\nIIII\n", // bad header
	}
	for _, in := range cases {
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

// TestSequenceLinesHoldOnlyLetters: IUPAC codes, N and lower case parse; any
// other byte in a FASTA or FASTQ sequence line is refused with the number of
// the line it is on, blank lines counted.
func TestSequenceLinesHoldOnlyLetters(t *testing.T) {
	if recs, err := ReadAll(strings.NewReader(">x\nACGTNacgtnRYKMSWBDHV\n")); err != nil || len(recs) != 1 {
		t.Errorf("IUPAC and soft-masked letters must parse: %v", err)
	}
	cases := []struct{ in, wantLine string }{
		{">a\nACGT\n\n\nAC>GT\n", "line 5"},
		{">a\r\nACGT\r\n\r\nAC GT\r\n", "line 4"},
		{">a\nAC-GT\n", "line 2"},
		{">a\nACGT\n@b\n", "line 3"},
		{"@r1\nACGT\n+\nIIII\n@r2\nAC*T\n+\nIIII\n", "line 6"},
		{"@r1\nAC\x00T\n+\nIIII\n", "line 2"},
	}
	for _, c := range cases {
		_, err := ReadAll(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.wantLine+":") {
			t.Errorf("input %q: error %v, want one naming %s", c.in, err, c.wantLine)
		}
	}
}

func TestWriteReadRoundTripFASTA(t *testing.T) {
	recs := []Record{
		{ID: "a", Desc: "desc", Seq: []byte(strings.Repeat("ACGT", 50))},
		{ID: "b", Seq: []byte("TTTT")},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, FormatFASTA, 60)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i].ID != recs[i].ID || string(back[i].Seq) != string(recs[i].Seq) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestWriteReadRoundTripFASTQ(t *testing.T) {
	recs := []Record{
		{ID: "r1", Seq: []byte("ACGTACGT"), Qual: []byte("IIIIIIII")},
		{ID: "r2", Seq: []byte("GG")}, // missing quality gets filled
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, FormatFASTQ, 0)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d records", len(back))
	}
	if string(back[1].Qual) != "II" {
		t.Errorf("missing quality not filled: %q", back[1].Qual)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fastqPath := filepath.Join(dir, "reads.fastq")
	reads := []seq.Read{
		{ID: "r1", Seq: []byte("ACGTACGTAA"), Qual: []byte("IIIIIIIIII")},
		{ID: "r2", Seq: []byte("TTGGCCAATT"), Qual: []byte("IIIIIIIIII")},
	}
	if err := WriteReadsFASTQ(fastqPath, reads); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReadsFile(fastqPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reads) {
		t.Fatalf("got %d reads, want %d", len(back), len(reads))
	}
	for i := range reads {
		if back[i].ID != reads[i].ID || string(back[i].Seq) != string(reads[i].Seq) {
			t.Errorf("read %d mismatch: %+v vs %+v", i, back[i], reads[i])
		}
	}

	fastaPath := filepath.Join(dir, "contigs.fasta")
	if err := WriteContigsFASTA(fastaPath, []string{"c1", "c2"}, [][]byte{[]byte("ACGT"), []byte("GGGG")}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile(fastaPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[1].Seq) != "GGGG" {
		t.Errorf("FASTA round trip failed: %+v", recs)
	}

	if err := WriteContigsFASTA(fastaPath, []string{"c1"}, nil); err == nil {
		t.Error("mismatched names/seqs should fail")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.fa")); err == nil {
		t.Error("missing file should fail")
	}
	if _, err := os.Stat(fastqPath); err != nil {
		t.Error("expected fastq file to exist")
	}
}

func TestEmptyAndBlankLines(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(""))
	if err != nil {
		t.Fatalf("empty input should not error, got %v", err)
	}
	if len(recs) != 0 {
		t.Errorf("empty input yielded %d records", len(recs))
	}
	input := "\n\n>only\nACGT\n\n"
	recs, err = ReadAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Seq) != "ACGT" {
		t.Errorf("blank-line input parsed wrong: %+v", recs)
	}
}
