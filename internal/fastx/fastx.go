// Package fastx reads and writes the FASTA and FASTQ sequence formats used
// by the assembler's command-line tools and examples. Only the stdlib is
// used; files are plain text (no compression).
package fastx

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"mhmgo/internal/seq"
)

// Record is a single FASTA or FASTQ record. Qual is nil for FASTA records.
type Record struct {
	ID   string
	Desc string
	Seq  []byte
	Qual []byte
}

// ToRead converts the record into a seq.Read.
func (r Record) ToRead() seq.Read {
	return seq.Read{ID: r.ID, Seq: r.Seq, Qual: r.Qual}
}

// Format identifies a sequence file format.
type Format int

// Supported formats.
const (
	FormatUnknown Format = iota
	FormatFASTA
	FormatFASTQ
)

// DetectFormat sniffs the format from the first non-empty line.
func DetectFormat(firstLine string) Format {
	trimmed := strings.TrimSpace(firstLine)
	switch {
	case strings.HasPrefix(trimmed, ">"):
		return FormatFASTA
	case strings.HasPrefix(trimmed, "@"):
		return FormatFASTQ
	default:
		return FormatUnknown
	}
}

// Reader parses FASTA or FASTQ records from an io.Reader, detecting the
// format from the first record. Sequence lines may hold letters only; any
// other byte is an error naming its line.
type Reader struct {
	br     *bufio.Reader
	format Format
	line   int
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

func (r *Reader) readLine() (string, error) {
	for {
		line, err := r.br.ReadString('\n')
		if len(line) > 0 {
			r.line++
			line = strings.TrimRight(line, "\r\n")
			if line != "" {
				return line, nil
			}
			if err != nil {
				return "", err
			}
			continue
		}
		if err != nil {
			return "", err
		}
	}
}

// Next returns the next record, or io.EOF when the input is exhausted.
func (r *Reader) Next() (Record, error) {
	header, err := r.readLine()
	if err != nil {
		return Record{}, err
	}
	if r.format == FormatUnknown {
		r.format = DetectFormat(header)
		if r.format == FormatUnknown {
			return Record{}, fmt.Errorf("fastx: line %d: unrecognized header %q", r.line, header)
		}
	}
	switch r.format {
	case FormatFASTA:
		return r.nextFASTA(header)
	case FormatFASTQ:
		return r.nextFASTQ(header)
	default:
		return Record{}, fmt.Errorf("fastx: unknown format")
	}
}

func splitHeader(header string) (id, desc string) {
	fields := strings.SplitN(header, " ", 2)
	id = fields[0]
	if len(fields) > 1 {
		desc = fields[1]
	}
	return id, desc
}

// checkSeqLine rejects a sequence line holding anything but letters. IUPAC
// codes, N and soft-masked lower case are legal; a '>' or '@' is not, because
// the writer's line wrap can put it first on a line, where it reads back as
// the header of a record that was never there.
func (r *Reader) checkSeqLine(line string) error {
	for i := 0; i < len(line); i++ {
		if c := line[i] | 0x20; c < 'a' || c > 'z' {
			return fmt.Errorf("fastx: line %d: byte %q at column %d is not a sequence letter", r.line, line[i], i+1)
		}
	}
	return nil
}

func (r *Reader) nextFASTA(header string) (Record, error) {
	if !strings.HasPrefix(header, ">") {
		return Record{}, fmt.Errorf("fastx: line %d: expected FASTA header, got %q", r.line, header)
	}
	id, desc := splitHeader(strings.TrimPrefix(header, ">"))
	rec := Record{ID: id, Desc: desc}
	for {
		peek, err := r.br.Peek(1)
		if err != nil {
			if err == io.EOF {
				break
			}
			return Record{}, err
		}
		if peek[0] == '\n' || peek[0] == '\r' {
			// Skip blank lines between sequence lines or before the next header.
			b, err := r.br.ReadByte()
			if err != nil {
				return Record{}, err
			}
			if b == '\n' {
				r.line++
			}
			continue
		}
		if peek[0] == '>' {
			break
		}
		line, err := r.readLine()
		if err != nil {
			if err == io.EOF {
				break
			}
			return Record{}, err
		}
		if err := r.checkSeqLine(line); err != nil {
			return Record{}, err
		}
		rec.Seq = append(rec.Seq, []byte(line)...)
	}
	if len(rec.Seq) == 0 {
		return Record{}, fmt.Errorf("fastx: record %q has no sequence", id)
	}
	return rec, nil
}

func (r *Reader) nextFASTQ(header string) (Record, error) {
	if !strings.HasPrefix(header, "@") {
		return Record{}, fmt.Errorf("fastx: line %d: expected FASTQ header, got %q", r.line, header)
	}
	id, desc := splitHeader(strings.TrimPrefix(header, "@"))
	seqLine, err := r.readLine()
	if err != nil {
		return Record{}, fmt.Errorf("fastx: truncated FASTQ record %q: %v", id, err)
	}
	if err := r.checkSeqLine(seqLine); err != nil {
		return Record{}, err
	}
	plus, err := r.readLine()
	if err != nil || !strings.HasPrefix(plus, "+") {
		return Record{}, fmt.Errorf("fastx: record %q: missing '+' separator", id)
	}
	qualLine, err := r.readLine()
	if err != nil {
		return Record{}, fmt.Errorf("fastx: truncated FASTQ record %q: %v", id, err)
	}
	if len(qualLine) != len(seqLine) {
		return Record{}, fmt.Errorf("fastx: record %q: quality length %d != sequence length %d",
			id, len(qualLine), len(seqLine))
	}
	return Record{ID: id, Desc: desc, Seq: []byte(seqLine), Qual: []byte(qualLine)}, nil
}

// ReadAll reads every record from r.
func ReadAll(r io.Reader) ([]Record, error) {
	fr := NewReader(r)
	var out []Record
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// ReadFile reads every record from the named file.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

// ReadReadsFile reads a FASTA/FASTQ file into seq.Read values.
func ReadReadsFile(path string) ([]seq.Read, error) {
	recs, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	reads := make([]seq.Read, len(recs))
	for i, rec := range recs {
		reads[i] = rec.ToRead()
	}
	return reads, nil
}

// Writer writes FASTA or FASTQ records.
type Writer struct {
	w         *bufio.Writer
	format    Format
	lineWidth int
}

// NewWriter returns a writer in the given format. lineWidth controls FASTA
// sequence wrapping; 0 means no wrapping.
func NewWriter(w io.Writer, format Format, lineWidth int) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), format: format, lineWidth: lineWidth}
}

// Write emits one record.
func (w *Writer) Write(rec Record) error {
	switch w.format {
	case FormatFASTA:
		header := ">" + rec.ID
		if rec.Desc != "" {
			header += " " + rec.Desc
		}
		if _, err := fmt.Fprintln(w.w, header); err != nil {
			return err
		}
		if w.lineWidth <= 0 {
			_, err := fmt.Fprintln(w.w, string(rec.Seq))
			return err
		}
		for start := 0; start < len(rec.Seq); start += w.lineWidth {
			end := start + w.lineWidth
			if end > len(rec.Seq) {
				end = len(rec.Seq)
			}
			if _, err := fmt.Fprintln(w.w, string(rec.Seq[start:end])); err != nil {
				return err
			}
		}
		return nil
	case FormatFASTQ:
		qual := rec.Qual
		if len(qual) == 0 {
			qual = make([]byte, len(rec.Seq))
			for i := range qual {
				qual[i] = 'I'
			}
		}
		header := "@" + rec.ID
		if rec.Desc != "" {
			header += " " + rec.Desc
		}
		_, err := fmt.Fprintf(w.w, "%s\n%s\n+\n%s\n", header, rec.Seq, qual)
		return err
	default:
		return fmt.Errorf("fastx: cannot write unknown format")
	}
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// WriteFile writes records to the named file in the given format.
func WriteFile(path string, recs []Record, format Format) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := NewWriter(f, format, 80)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}

// WriteReadsFASTQ writes reads to a FASTQ file.
func WriteReadsFASTQ(path string, reads []seq.Read) error {
	recs := make([]Record, len(reads))
	for i, r := range reads {
		recs[i] = Record{ID: r.ID, Seq: r.Seq, Qual: r.Qual}
	}
	return WriteFile(path, recs, FormatFASTQ)
}

// WriteContigsFASTA writes named sequences to a FASTA file.
func WriteContigsFASTA(path string, names []string, seqs [][]byte) error {
	if len(names) != len(seqs) {
		return fmt.Errorf("fastx: %d names but %d sequences", len(names), len(seqs))
	}
	recs := make([]Record, len(names))
	for i := range names {
		recs[i] = Record{ID: names[i], Seq: seqs[i]}
	}
	return WriteFile(path, recs, FormatFASTA)
}
