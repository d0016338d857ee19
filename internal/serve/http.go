package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"mhmgo/internal/fastx"
)

// HTTP API surface:
//
//	POST   /v1/jobs             submit a JobSpec        -> 202 job snapshot
//	GET    /v1/jobs             list jobs               -> 200 [snapshots]
//	GET    /v1/jobs/{id}        one job                 -> 200 snapshot
//	DELETE /v1/jobs/{id}        cancel                  -> 200 snapshot
//	GET    /v1/jobs/{id}/events progress stream         -> 200 SSE (or NDJSON)
//	GET    /v1/jobs/{id}/fasta  assembly output         -> 200 FASTA (409 until done)
//	GET    /v1/metrics.csv      per-job metrics table   -> 200 CSV
//	GET    /v1/healthz          admission snapshot      -> 200 Stats JSON
//
// Submission failures map to: 400 (invalid spec, structured SpecError body),
// 409 (duplicate ID), 413 (body over maxSubmitBytes, structured SpecError
// body naming the cap), 429 + Retry-After (queue full), 503 (server closed).

// maxSubmitBytes caps a POST /v1/jobs body: the inline read cap plus 1 MiB
// for the rest of the spec and the JSON escaping.
const maxSubmitBytes = MaxInlineReadBytes + 1<<20

func (s *Server) initMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/fasta", s.handleFASTA)
	mux.HandleFunc("GET /v1/metrics.csv", s.handleMetricsCSV)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux = mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
	// Field is set for spec validation failures (the offending JSON field).
	Field string `json:"field,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error()}
	var se *SpecError
	if errors.As(err, &se) {
		body.Field = se.Field
	}
	writeJSON(w, status, body)
}

// jobSnapshot is the JSON view of one job: its normalized spec plus the
// flat metrics record (which carries state, timing, and assembly meters).
type jobSnapshot struct {
	Spec    JobSpec    `json:"spec"`
	Metrics JobMetrics `json:"metrics"`
}

func snapshot(j *Job) jobSnapshot {
	return jobSnapshot{Spec: j.Spec(), Metrics: j.Metrics()}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, &SpecError{Field: "(body)",
				Msg: fmt.Sprintf("request body exceeds the %d-byte cap", tooBig.Limit)})
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	// Submit normalizes and validates: parsing the upload once is enough.
	spec, err := decodeJSON(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		var se *SpecError
		switch {
		case errors.As(err, &se):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrDuplicateID):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrServerClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, snapshot(j))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]jobSnapshot, len(jobs))
	for i, j := range jobs {
		out[i] = snapshot(j)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, snapshot(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshot(j))
}

// handleEvents streams the job's progress events. The default framing is
// Server-Sent Events (one `data: <json>` block per event); ?format=ndjson
// switches to newline-delimited JSON. The stream replays the full event log
// from the start (or ?from=N) and then follows live until the job reaches a
// terminal state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	ndjson := r.URL.Query().Get("format") == "ndjson"
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid from=%q", v))
			return
		}
		from = n
	}
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		evs, updated, terminal := j.Events(from)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if ndjson {
				fmt.Fprintf(w, "%s\n", data)
			} else {
				fmt.Fprintf(w, "data: %s\n\n", data)
			}
		}
		from += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleFASTA(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	state := j.State()
	if state != StateDone {
		status := http.StatusConflict
		writeError(w, status, fmt.Errorf("serve: job %q is %s, not done", j.ID(), state))
		return
	}
	w.Header().Set("Content-Type", "text/x-fasta")
	w.WriteHeader(http.StatusOK)
	w.Write(j.FASTA())
}

func (s *Server) handleMetricsCSV(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, MetricsCSVHeader())
	for _, j := range s.Jobs() {
		fmt.Fprintln(w, j.Metrics().CSVRow())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// RenderFASTA renders named sequences as 80-column FASTA text, the same
// layout cmd/mhm writes to disk.
func RenderFASTA(names []string, seqs [][]byte) []byte {
	var buf bytes.Buffer
	fw := fastx.NewWriter(&buf, fastx.FormatFASTA, 80)
	for i := range names {
		fw.Write(fastx.Record{ID: names[i], Seq: seqs[i]})
	}
	fw.Flush()
	return buf.Bytes()
}
