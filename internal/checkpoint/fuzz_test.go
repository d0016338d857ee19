package checkpoint

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzManifestParse feeds arbitrary bytes through manifest parsing and chain
// verification: both must reject malformed input with an error — never panic
// — and a manifest that parses and verifies must survive a JSON round trip
// with its head intact.
func FuzzManifestParse(f *testing.F) {
	m := New("cfg-hash", "input-hash", 3)
	m.AppendStep(0, "kmer_analysis", 21, []string{"a", "b", "c"})
	m.AppendStep(0, "dbg_traversal", 21, []string{"d", "e", "f"})
	seed, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"ranks":2,"steps":[{"seq":0}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Parse(data)
		if err != nil {
			return
		}
		if verr := got.Verify(); verr != nil {
			return
		}
		// A parsed and verified manifest must round-trip with a stable head.
		out, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("marshal of verified manifest: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse of verified manifest: %v", err)
		}
		if again.Head() != got.Head() {
			t.Fatalf("head changed across JSON round trip: %s vs %s", again.Head(), got.Head())
		}
	})
}

// FuzzDecRecords drives every field list of the codec table over arbitrary
// bytes: it must either fail or produce a value whose re-encoding is
// byte-identical to what was consumed (the format is canonical).
func FuzzDecRecords(f *testing.F) {
	for i, rc := range records {
		f.Add(uint8(i), rc.seed)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		rc := records[int(kind)%len(records)]
		d := NewDec(data)
		re := rc.recode(d)
		if d.err != nil {
			return
		}
		if consumed := data[:len(data)-d.Remaining()]; !bytes.Equal(re, consumed) {
			t.Fatalf("%s: re-encode differs from consumed bytes (%d vs %d bytes)", rc.name, len(re), len(consumed))
		}
	})
}
