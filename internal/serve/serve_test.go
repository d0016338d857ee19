package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mhmgo/internal/core"
	"mhmgo/internal/fastx"
	"mhmgo/internal/pgas"
)

// Err returns the terminal error of a failed, cancelled or timed-out job.
// Production reports it as text (JobMetrics.Error, the stream's last event);
// the tests match it with errors.Is.
func (j *Job) Err() error {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.err
}

func postSpec(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestHTTPAPI exercises the full HTTP surface against the runFn seam:
// status codes, error envelopes, the Retry-After backpressure header, event
// streaming, and the CSV export.
func TestHTTPAPI(t *testing.T) {
	s := New(Options{TotalWorkers: 1, MaxQueue: 1})
	defer s.Close()
	f := installFakeRuns(s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Invalid spec: structured 400 naming the offending field.
	resp, body := postSpec(t, ts, JobSpec{ID: "bad", Ranks: -1, Sim: &SimSpec{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec status = %d, want 400", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Field != "ranks" {
		t.Fatalf("400 body = %s (err %v), want field \"ranks\"", body, err)
	}

	// Unknown JSON fields are a 400, not a silently dropped knob.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"sim": {}, "workerz": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field spec status = %d, want 400", resp.StatusCode)
	}

	// A body over the cap is a 413 naming the cap, not a truncated spec
	// reported as malformed JSON.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(
		`{"id":"big","libraries":[{"reads":"`+strings.Repeat("A", maxSubmitBytes+2<<20)+`"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize submit status = %d, want 413 (body %s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Field != "(body)" ||
		!strings.Contains(eb.Error, strconv.Itoa(maxSubmitBytes)) {
		t.Fatalf("413 body = %s (err %v), want field \"(body)\" naming the %d-byte cap", body, err, maxSubmitBytes)
	}

	// Valid submission: 202 with the normalized spec echoed back.
	resp, body = postSpec(t, ts, simSpec("a", 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202 (body %s)", resp.StatusCode, body)
	}
	var snap jobSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Spec.Priority != PriorityInteractive || snap.Metrics.ID != "a" {
		t.Fatalf("submit snapshot = %+v, want normalized spec for job a", snap)
	}

	// Duplicate ID: 409.
	if resp, _ = postSpec(t, ts, simSpec("a", 1)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate submit status = %d, want 409", resp.StatusCode)
	}

	// Fill the queue, then overflow it: 429 + Retry-After.
	postSpec(t, ts, simSpec("b", 1))
	resp, _ = postSpec(t, ts, simSpec("c", 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After = %q, want a positive integer", ra)
	}

	// FASTA before completion: 409.
	if resp, _ = get(t, ts, "/v1/jobs/a/fasta"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("fasta-while-running status = %d, want 409", resp.StatusCode)
	}

	// Unknown job: 404 on all per-job routes.
	if resp, _ = get(t, ts, "/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}

	// Cancel the queued job over HTTP.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/b", nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", cresp.StatusCode)
	}
	jb, _ := s.Job("b")
	waitState(t, jb, StateCancelled)

	// Let the running job finish and stream its events as NDJSON.
	f.release("a")
	ja, _ := s.Job("a")
	waitState(t, ja, StateDone)
	resp, body = get(t, ts, "/v1/jobs/a/events?format=ndjson")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d, want 200", resp.StatusCode)
	}
	var states []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		ev, err := DecodeEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	if want := []string{StateQueued, StateRunning, StateDone}; fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("streamed states = %v, want %v", states, want)
	}

	// SSE framing on the default events route.
	resp, body = get(t, ts, "/v1/jobs/a/events")
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q, want text/event-stream", ct)
	}
	if !bytes.Contains(body, []byte("data: {")) {
		t.Fatalf("SSE body %q lacks data: frames", body)
	}

	// Completed job: FASTA now downloads.
	if resp, _ = get(t, ts, "/v1/jobs/a/fasta"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fasta-after-done status = %d, want 200", resp.StatusCode)
	}

	// Metrics CSV: header plus one row per job.
	resp, body = get(t, ts, "/v1/metrics.csv")
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if lines[0] != MetricsCSVHeader() {
		t.Fatalf("metrics.csv header = %q", lines[0])
	}
	if len(lines) != 1+len(s.Jobs()) {
		t.Fatalf("metrics.csv has %d rows, want %d", len(lines)-1, len(s.Jobs()))
	}

	// Healthz reflects the admission state.
	resp, body = get(t, ts, "/v1/healthz")
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.TotalWorkers != 1 || st.Done != 1 || st.Cancelled != 1 {
		t.Fatalf("healthz = %+v, want 1 worker, 1 done, 1 cancelled", st)
	}

	// Job listing covers every submission in order.
	resp, body = get(t, ts, "/v1/jobs")
	var list []jobSnapshot
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Metrics.ID != "a" || list[1].Metrics.ID != "b" {
		t.Fatalf("job list = %+v, want [a b]", list)
	}
}

// raceSpecs are eight overlapping jobs with mixed machine sizes, worker
// grants, priorities and inputs (different seeds, community shapes, and
// multi-library recipes).
func raceSpecs() []JobSpec {
	specs := make([]JobSpec, 8)
	for i := range specs {
		spec := JobSpec{
			ID:      fmt.Sprintf("race-%d", i),
			Workers: 1 + i%2,
			Ranks:   4 + 4*(i%2),
			Sim: &SimSpec{
				Genomes:   2 + i%3,
				GenomeLen: 2000 + 500*(i%4),
				Coverage:  15,
				Seed:      int64(100 + i),
			},
		}
		if i%3 == 0 {
			spec.Priority = PriorityBatch
		}
		if i%4 == 3 {
			spec.Sim.Libraries = []SimLibrarySpec{
				{InsertSize: 200, InsertStd: 20, Share: 0.6},
				{InsertSize: 500, InsertStd: 40, Share: 0.4},
			}
		}
		specs[i] = spec.Normalized()
	}
	return specs
}

// TestServeConcurrentJobsRace runs eight overlapping assemblies through the
// HTTP API under the race detector and pins the multi-tenancy contract:
// every job's FASTA bytes and simulated seconds are bit-identical to a
// direct core.Assemble of the same spec — co-tenants never bleed into each
// other's results.
func TestServeConcurrentJobsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-job assembly comparison is not short")
	}
	s := New(Options{TotalWorkers: 8, MaxQueue: 16})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	specs := raceSpecs()
	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(1)
		go func(spec JobSpec) {
			defer wg.Done()
			resp, body := postSpec(t, ts, spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %s: status %d (body %s)", spec.ID, resp.StatusCode, body)
			}
		}(spec)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, spec := range specs {
		j, err := s.Job(spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(5 * time.Minute):
			t.Fatalf("job %s stuck in state %s", spec.ID, j.State())
		}
		if got := j.State(); got != StateDone {
			t.Fatalf("job %s finished %s (err %v), want done", spec.ID, got, j.Err())
		}
	}

	// Replay each job directly (no server) and demand bit-identity.
	for _, spec := range specs {
		cfg := spec.config()
		reads, err := spec.BuildReads()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.Assemble(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seqs := direct.FinalSequences()
		names := make([]string, len(seqs))
		for i := range seqs {
			names[i] = fmt.Sprintf("scaffold_%06d", i)
		}
		wantFASTA := RenderFASTA(names, seqs)

		resp, gotFASTA := get(t, ts, "/v1/jobs/"+spec.ID+"/fasta")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fasta %s: status %d", spec.ID, resp.StatusCode)
		}
		if !bytes.Equal(gotFASTA, wantFASTA) {
			t.Errorf("job %s: served FASTA differs from direct assembly (%d vs %d bytes)",
				spec.ID, len(gotFASTA), len(wantFASTA))
		}
		recs, err := fastx.ReadAll(bytes.NewReader(gotFASTA))
		if err != nil {
			t.Fatalf("job %s: served FASTA does not parse: %v", spec.ID, err)
		}
		if len(recs) != len(seqs) {
			t.Errorf("job %s: served %d sequences, direct %d", spec.ID, len(recs), len(seqs))
		}

		// Simulated seconds round-trip through JSON exactly (float64), so
		// equality here is bit-equality.
		resp, body := get(t, ts, "/v1/jobs/"+spec.ID)
		var snap jobSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Metrics.SimSeconds != direct.SimSeconds {
			t.Errorf("job %s: served sim-seconds %v != direct %v",
				spec.ID, snap.Metrics.SimSeconds, direct.SimSeconds)
		}
		if snap.Metrics.PeakResidentBytes != direct.Stats.PeakResidentBytes {
			t.Errorf("job %s: served peak-resident %d != direct %d",
				spec.ID, snap.Metrics.PeakResidentBytes, direct.Stats.PeakResidentBytes)
		}

		// The stage stream is complete and its clock is monotone.
		j, _ := s.Job(spec.ID)
		evs, _, _ := j.Events(0)
		stages, lastClock := 0, -1.0
		for _, ev := range evs {
			if ev.Type != "stage" {
				continue
			}
			stages++
			if ev.SimSeconds < lastClock {
				t.Errorf("job %s: stage clock went backwards (%v after %v)", spec.ID, ev.SimSeconds, lastClock)
			}
			lastClock = ev.SimSeconds
		}
		if stages == 0 {
			t.Errorf("job %s: no stage events streamed", spec.ID)
		}
		// The final result gather runs after the last stage-end barrier, so
		// the last stage clock is a hair below the run's total.
		if lastClock > direct.SimSeconds {
			t.Errorf("job %s: final stage clock %v exceeds result sim-seconds %v", spec.ID, lastClock, direct.SimSeconds)
		}
	}
}

// TestCancelMidStage cancels a real assembly from inside its own progress
// stream: the first stage-end event triggers Cancel, the job's context
// aborts its pgas machine, every rank unwinds, the worker slots come back,
// and the pool is provably not wedged (a follow-up job runs to completion).
func TestCancelMidStage(t *testing.T) {
	s := New(Options{TotalWorkers: 4})
	defer s.Close()
	var once sync.Once
	s.onStage = func(j *Job, ev core.ProgressEvent) {
		if j.ID() != "victim" {
			return
		}
		once.Do(func() {
			if _, err := s.Cancel("victim"); err != nil {
				t.Errorf("mid-stage cancel: %v", err)
			}
		})
	}

	spec := JobSpec{
		ID:      "victim",
		Workers: 2,
		Ranks:   8,
		Sim:     &SimSpec{Genomes: 3, GenomeLen: 4000, Coverage: 15, Seed: 7},
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("cancelled job stuck in state %s", j.State())
	}
	if got := j.State(); got != StateCancelled {
		t.Fatalf("job state = %s (err %v), want cancelled", got, j.Err())
	}
	if !errors.Is(j.Err(), pgas.ErrAborted) {
		t.Fatalf("cancelled job err = %v, want pgas.ErrAborted", j.Err())
	}
	if !errors.Is(j.Err(), ErrJobCancelled) {
		t.Fatalf("cancelled job err = %v, want the ErrJobCancelled cause", j.Err())
	}
	if st := s.Stats(); st.FreeWorkers != st.TotalWorkers {
		t.Fatalf("FreeWorkers = %d after abort, want %d", st.FreeWorkers, st.TotalWorkers)
	}

	// The pool survived the abort: a fresh real job completes.
	s.onStage = nil
	follow, err := s.Submit(JobSpec{
		ID:      "follow",
		Workers: 2,
		Ranks:   4,
		Sim:     &SimSpec{Genomes: 2, GenomeLen: 2000, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-follow.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("follow-up job stuck in state %s", follow.State())
	}
	if got := follow.State(); got != StateDone {
		t.Fatalf("follow-up job state = %s (err %v), want done", got, follow.Err())
	}
}

// TestLibraryTextParsedOncePerEntryPoint counts the parses of an uploaded
// library's text on its way through the HTTP API: one when the submission is
// checked, one when the dispatched job builds its reads (the queue holds no
// decoded reads, so that second parse is by design), and no others.
func TestLibraryTextParsedOncePerEntryPoint(t *testing.T) {
	var parses atomic.Int64
	orig := parseLibrary
	parseLibrary = func(text string) ([]fastx.Record, error) {
		parses.Add(1)
		return orig(text)
	}
	defer func() { parseLibrary = orig }()

	reads, err := simSpec("donor", 1).BuildReads()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/reads.fastq"
	if err := fastx.WriteReadsFASTQ(path, reads); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Options{TotalWorkers: 1})
	defer s.Close()
	var atDispatch int64
	s.runFn = func(ctx context.Context, j *Job) (*core.Result, error) {
		atDispatch = parses.Load()
		return s.assembleJob(ctx, j)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postSpec(t, ts, JobSpec{ID: "inline", Ranks: 4, Libraries: []LibrarySpec{{Reads: string(text)}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	j, _ := s.Job("inline")
	<-j.Done()
	if j.State() != StateDone {
		t.Fatalf("job ended %s: %v", j.State(), j.Err())
	}
	if atDispatch != 1 {
		t.Errorf("submission parsed the library text %d times, want 1", atDispatch)
	}
	if perRun := parses.Load() - atDispatch; perRun != 1 {
		t.Errorf("the run parsed the library text %d times, want 1", perRun)
	}
}

// TestNegativeKScheduleNamesField: a negative k-schedule value is refused
// with a SpecError naming the field that holds it.
func TestNegativeKScheduleNamesField(t *testing.T) {
	for _, tc := range []struct{ doc, field string }{
		{`{"kmin": -1, "sim": {}}`, "kmin"},
		{`{"kmax": -1, "sim": {}}`, "kmax"},
		{`{"kstep": -2, "sim": {}}`, "kstep"},
	} {
		_, err := DecodeSpec([]byte(tc.doc))
		var se *SpecError
		if !errors.As(err, &se) || se.Field != tc.field {
			t.Errorf("%s: error %v, want a SpecError on %q", tc.doc, err, tc.field)
		}
	}
}
