package fastx

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzFASTX feeds arbitrary bytes to the parser mhm reads files with and
// mhmserve reads inline tenant uploads with. It must never panic, and any
// input it accepts must survive the writer: written back in its own format at
// the line width WriteFile uses, it re-parses to the same records.
func FuzzFASTX(f *testing.F) {
	f.Add([]byte(">contig1 first contig\nACGT\nACGT\n>contig2\nTTTT\n"))
	f.Add([]byte("@r1 lane1\nACGT\n+\nIIII\n@r2\nTT\n+r2\n!!\n"))
	f.Add([]byte("\n\r\n> desc only\r\nacgtNRYK\n\n"))
	// A '>' inside an 82-base sequence lands first on the writer's second
	// line and splits the record on re-read; the parser must refuse it.
	f.Add([]byte(">\n" + strings.Repeat("A", 80) + ">A\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var recs []Record
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // rejected with an error: nothing more to hold
			}
			recs = append(recs, rec)
		}
		if len(recs) == 0 {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, r.format, 80)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		back, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("accepted input does not re-parse: %v\nwritten:\n%q", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("round trip changed the records:\n got %+v\nwant %+v\nwritten:\n%q", back, recs, buf.Bytes())
		}
	})
}
