package serve

import (
	"encoding/json"
	"errors"
	"testing"

	"mhmgo/internal/core"
)

// FuzzJobSpecDecode fuzzes the job-spec decoder: arbitrary bytes must never
// panic, invalid documents must fail with a structured *SpecError (the 400
// body), and every accepted spec must round-trip — re-encoding and
// re-decoding reproduces the normalized spec and its core.ConfigHash
// exactly, so a job resubmitted from a server echo runs the identical
// configuration.
func FuzzJobSpecDecode(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"sim": {}}`,
		`{"sim": {"genomes": 3, "genome_len": 5000, "coverage": 12, "seed": 42}}`,
		`{"id": "j1", "priority": "batch", "workers": 4, "ranks": 16, "ranks_per_node": 8, "sim": {"seed": 1}}`,
		`{"kmin": 21, "kmax": 63, "kstep": 22, "min_contig_len": 500, "no_scaffold": true, "sim": {}}`,
		`{"sim": {"libraries": [{"insert_size": 200, "insert_std": 20, "share": 0.5}, {"insert_size": 600, "share": 0.5}]}}`,
		`{"libraries": [{"name": "pe", "insert_size": 300, "reads": ">r0\nACGTACGTAC\n>r1\nGTACGTACGT\n"}]}`,
		`{"libraries": [{"reads": "@r0\nACGT\n+\nIIII\n@r1\nTTTT\n+\nIIII\n"}]}`,
		`{"workers": -1, "sim": {}}`,
		`{"ranks": 100000, "sim": {}}`,
		`{"priority": "urgent", "sim": {}}`,
		`{"sim": {}, "libraries": [{"reads": ">r\nA\n"}]}`,
		`{"sim": {"error_rate": 2}}`,
		`{"unknown_field": 1}`,
		`{"sim": {}} trailing`,
		`not json at all`,
		``,
		`null`,
		`[1,2,3]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("DecodeSpec error %v (%T) is not a *SpecError", err, err)
			}
			if se.Field == "" || se.Msg == "" {
				t.Fatalf("SpecError %+v has an empty field or message", se)
			}
			return
		}
		// Accepted: the spec is already normalized and must survive an
		// encode/decode round trip bit-for-bit.
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encoding accepted spec: %v", err)
		}
		spec2, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		enc2, err := json.Marshal(spec2)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("spec round trip diverged:\n%s\n%s", enc, enc2)
		}
		if h1, h2 := core.ConfigHash(spec.config()), core.ConfigHash(spec2.config()); h1 != h2 {
			t.Fatalf("config hash diverged across round trip: %s vs %s", h1, h2)
		}
	})
}

// FuzzProgressEventDecode fuzzes the progress-event decoder clients use on
// the SSE/NDJSON stream: arbitrary bytes never panic, and every accepted
// event re-encodes to its canonical form and decodes back identically.
func FuzzProgressEventDecode(f *testing.F) {
	seeds := []string{
		`{"seq": 0, "type": "state", "state": "queued"}`,
		`{"seq": 3, "type": "state", "state": "failed", "error": "boom"}`,
		`{"seq": 1, "type": "stage", "stage": "kmer_analysis", "iteration": 0, "k": 21, "sim_seconds": 0.25, "resident_bytes": 4096}`,
		`{"seq": 9, "type": "stage", "stage": "alignment", "iteration": 1, "k": 33, "seconds": 0.0125, "sim_seconds": 0.035, "resident_bytes": 123456}`,
		`{"seq": 2, "type": "stage", "seconds": -0.5}`,
		`{"seq": 2, "type": "stage", "sim_seconds": -1e-9}`,
		`{"seq": -1, "type": "state"}`,
		`{"seq": 0, "type": "bogus"}`,
		`{"seq": 0, "type": "stage", "k": -3}`,
		`{"seq": 0, "type": "state", "state": "queued"} extra`,
		`{"unknown": true}`,
		`{}`,
		`null`,
		`42`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := DecodeEvent(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("re-encoding accepted event: %v", err)
		}
		ev2, err := DecodeEvent(enc)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		if ev != ev2 {
			t.Fatalf("event round trip diverged: %+v vs %+v", ev, ev2)
		}
	})
}

// TestEventWirePin pins the event stream's JSON bytes. The state events and
// the stage events without "seconds" were captured before the stage fields
// became an embedded core.ProgressEvent; carrying the step's duration adds
// exactly one "seconds" key and moves no other byte.
func TestEventWirePin(t *testing.T) {
	stage := func(seq, it, k int, stage string, seconds, sim float64, resident uint64) Event {
		return Event{Seq: seq, Type: "stage", ProgressEvent: core.ProgressEvent{
			Stage: stage, Iteration: it, K: k, Seconds: seconds, SimSeconds: sim, ResidentBytes: resident}}
	}
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Seq: 0, Type: "state", State: StateQueued},
			`{"seq":0,"type":"state","state":"queued"}`},
		{Event{Seq: 14, Type: "state", State: StateFailed, Error: "boom"},
			`{"seq":14,"type":"state","state":"failed","error":"boom"}`},
		{stage(1, 0, 21, "kmer_analysis", 0, 0.0075579804000131595, 4096),
			`{"seq":1,"type":"stage","stage":"kmer_analysis","k":21,"sim_seconds":0.0075579804000131595,"resident_bytes":4096}`},
		{stage(9, 1, 33, "alignment", 0, 0.035, 123456),
			`{"seq":9,"type":"stage","stage":"alignment","iteration":1,"k":33,"sim_seconds":0.035,"resident_bytes":123456}`},
		{stage(9, 1, 33, "alignment", 0.0125, 0.035, 123456),
			`{"seq":9,"type":"stage","stage":"alignment","iteration":1,"k":33,"seconds":0.0125,"sim_seconds":0.035,"resident_bytes":123456}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("encoded %s\nwant    %s", got, tc.want)
		}
		if back, err := DecodeEvent(got); err != nil || back != tc.ev {
			t.Errorf("decoding %s = %+v, %v; want %+v", got, back, err, tc.ev)
		}
	}
	for _, bad := range []string{
		`{"seq":2,"type":"stage","k":-3}`,
		`{"seq":2,"type":"stage","seconds":-0.5}`,
		`{"seq":2,"type":"stage","sim_seconds":-1e-9}`,
		`{"seq":2,"type":"stage","barrier_wait":-1e-9}`,
	} {
		if ev, err := DecodeEvent([]byte(bad)); err == nil {
			t.Errorf("DecodeEvent(%s) = %+v, want a negative-value error", bad, ev)
		}
	}
}
