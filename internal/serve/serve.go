package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mhmgo/internal/core"
	"mhmgo/internal/pgas"
)

// Job lifecycle states. The state machine is strictly forward:
//
//	queued ──> running ──> done | failed | cancelled
//	  │
//	  └──────> cancelled | timeout          (never granted a slot)
//
// plus the submit-time rejections that never create a job at all (invalid
// spec -> 400, duplicate ID -> 409, queue full -> 429).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
	StateTimeout   = "timeout"
)

// terminalState reports whether a job in the given state will never change
// again (its events stream is complete and its worker slots are released).
func terminalState(state string) bool {
	return state != StateQueued && state != StateRunning
}

// Event is one entry of a job's progress stream: either a lifecycle state
// transition or a completed pipeline step. Events are delivered in order
// with a dense per-job sequence number, so a reconnecting client can detect
// gaps.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state" or "stage"

	// State transitions ("state" events).
	State string `json:"state,omitempty"`
	// Error carries the failure (or cancellation) cause on terminal states.
	Error string `json:"error,omitempty"`

	// Completed pipeline steps ("stage" events): the pipeline's own record,
	// whose fields encode inline and are all omitted from state events.
	core.ProgressEvent
}

// DecodeEvent parses one progress event from its JSON encoding, rejecting
// structurally invalid events (unknown type, trailing data, a negative
// sequence, stage coordinate or seconds) with an error — never a panic. Valid events round-trip: encoding the
// result reproduces the canonical form.
func DecodeEvent(data []byte) (Event, error) {
	var ev Event
	if err := strictUnmarshal(data, &ev); err != nil {
		return Event{}, err
	}
	if ev.Type != "state" && ev.Type != "stage" {
		return Event{}, fmt.Errorf("serve: event type %q is neither \"state\" nor \"stage\"", ev.Type)
	}
	if ev.Seq < 0 {
		return Event{}, fmt.Errorf("serve: negative event seq %d", ev.Seq)
	}
	if ev.Iteration < 0 || ev.K < 0 {
		return Event{}, fmt.Errorf("serve: negative stage coordinates (%d, %d)", ev.Iteration, ev.K)
	}
	if ev.Seconds < 0 || ev.SimSeconds < 0 || ev.BarrierWait < 0 {
		return Event{}, fmt.Errorf("serve: negative stage seconds (%v, %v, %v)", ev.Seconds, ev.SimSeconds, ev.BarrierWait)
	}
	return ev, nil
}

// Submission errors. SpecError (invalid spec) is defined in spec.go.
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity: backpressure, HTTP 429 + Retry-After.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDuplicateID rejects a submission reusing a live or finished job ID.
	ErrDuplicateID = errors.New("serve: duplicate job id")
	// ErrServerClosed rejects submissions after Close.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrUnknownJob is returned for lookups of IDs never submitted.
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrJobCancelled is the cancellation cause delivered to a running
	// job's context (and, through it, to pgas.Machine.Abort).
	ErrJobCancelled = errors.New("serve: job cancelled")
	// ErrQueueTimeout marks a job that waited longer than its queue-wait
	// budget without ever being granted worker slots.
	ErrQueueTimeout = errors.New("serve: queue wait timeout")
)

// Options configures a Server.
type Options struct {
	// TotalWorkers is the server-wide worker-slot budget shared by all
	// concurrently running jobs; each job holds its requested Workers slots
	// from dispatch to completion. Defaults to GOMAXPROCS.
	TotalWorkers int
	// MaxQueue bounds the admission queue (jobs admitted but not yet
	// running); submissions beyond it are rejected with ErrQueueFull.
	// Defaults to 64.
	MaxQueue int
	// QueueTimeout bounds how long a job may wait for worker slots before
	// it is expired with StateTimeout. Defaults to 60s; jobs may shorten
	// (or lengthen) it per-spec via QueueTimeoutMS. Negative disables.
	QueueTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.TotalWorkers <= 0 {
		o.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.QueueTimeout == 0 {
		o.QueueTimeout = 60 * time.Second
	}
	return o
}

// Server is the multi-tenant assembly job server: an admission-controlled
// priority queue in front of a bounded worker-slot budget, with every job
// running core.AssembleContext on its own pgas machine. Server implements
// http.Handler (see http.go for the API surface); it is also usable
// directly through Submit/Cancel/Job for in-process embedding and tests.
type Server struct {
	opts Options
	mux  *http.ServeMux

	mu          sync.Mutex
	jobs        map[string]*Job
	jobList     []*Job // submission order, for listing and CSV export
	queue       []*Job // admitted, waiting for slots
	freeWorkers int
	nextID      int64
	seq         int64
	closed      bool

	// runFn executes one dispatched job; tests replace it to exercise the
	// admission controller without real assemblies. The default builds the
	// job's reads and runs core.AssembleContext.
	runFn func(ctx context.Context, j *Job) (*core.Result, error)
	// onStage, when non-nil, observes every stage event synchronously on
	// the reporting rank's goroutine (a test seam: TestCancelMidStage uses
	// it to cancel a job deterministically mid-pipeline). Must be set
	// before any job is submitted.
	onStage func(j *Job, ev core.ProgressEvent)
}

// New creates a Server with the given options.
func New(opts Options) *Server {
	s := &Server{
		opts: opts.withDefaults(),
		jobs: make(map[string]*Job),
	}
	s.freeWorkers = s.opts.TotalWorkers
	s.runFn = s.assembleJob
	s.initMux()
	return s
}

// Job is one submitted assembly. All mutable fields are guarded by the
// server's mutex; accessors take snapshots.
type Job struct {
	s    *Server
	spec JobSpec
	cfg  core.Config
	seq  int64 // admission order within the server

	state     string
	cancelled bool // cancellation requested (queued or running)
	cancel    context.CancelCauseFunc
	timer     *time.Timer // queue-wait expiry; nil once running
	events    []Event
	updated   chan struct{} // closed and replaced on every event append
	done      chan struct{} // closed when the job reaches a terminal state

	submitted, started, finished time.Time

	result *core.Result
	fasta  []byte
	err    error
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.spec.ID }

// Spec returns the job's normalized spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() string {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.state
}

// Result returns the assembly result of a done job (nil otherwise).
func (j *Job) Result() *core.Result {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.result
}

// FASTA returns the rendered assembly output of a done job (nil otherwise).
func (j *Job) FASTA() []byte {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.fasta
}

// Events returns a snapshot of the job's event log from seq from onward,
// plus the channel that will be closed when more events arrive.
func (j *Job) Events(from int) (evs []Event, updated <-chan struct{}, terminal bool) {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.updated, terminalState(j.state)
}

// Metrics returns the job's flat metrics snapshot.
func (j *Job) Metrics() JobMetrics {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.metricsLocked(time.Now())
}

func (j *Job) metricsLocked(now time.Time) JobMetrics {
	m := JobMetrics{
		ID:           j.spec.ID,
		State:        j.state,
		Priority:     j.spec.Priority,
		Workers:      j.spec.Workers,
		Ranks:        j.spec.Ranks,
		SubmitUnixMS: j.submitted.UnixMilli(),
	}
	queueEnd, runEnd := j.started, j.finished
	if queueEnd.IsZero() {
		// Never started: queued until finish (timeout/cancel) or now.
		queueEnd = j.finished
		if queueEnd.IsZero() {
			queueEnd = now
		}
	}
	if runEnd.IsZero() {
		runEnd = now
	}
	m.QueueMS = queueEnd.Sub(j.submitted).Seconds() * 1e3
	if !j.started.IsZero() {
		m.RunMS = runEnd.Sub(j.started).Seconds() * 1e3
	}
	end := j.finished
	if end.IsZero() {
		end = now
	}
	m.TotalMS = end.Sub(j.submitted).Seconds() * 1e3
	if j.result != nil {
		m.SimSeconds = j.result.SimSeconds
		m.TotalReads = j.result.TotalReads
		m.Contigs = len(j.result.Contigs)
		m.Scaffolds = len(j.result.Scaffolds)
		m.ScaffoldN50 = j.result.ScaffoldStats.N50
		m.PeakResidentBytes = j.result.Stats.PeakResidentBytes
		m.BytesSent = j.result.Stats.BytesSent
		m.BytesReceived = j.result.Stats.BytesReceived
	}
	if j.err != nil {
		m.Error = j.err.Error()
	}
	return m
}

// Stats is the server-wide admission snapshot (the healthz body).
type Stats struct {
	TotalWorkers int `json:"total_workers"`
	FreeWorkers  int `json:"free_workers"`
	Queued       int `json:"queued"`
	Running      int `json:"running"`
	Done         int `json:"done"`
	Failed       int `json:"failed"`
	Cancelled    int `json:"cancelled"`
	TimedOut     int `json:"timed_out"`
}

// Stats returns the server-wide admission snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{TotalWorkers: s.opts.TotalWorkers, FreeWorkers: s.freeWorkers}
	for _, j := range s.jobList {
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		case StateTimeout:
			st.TimedOut++
		}
	}
	return st
}

// Submit validates and admits a job. The spec is normalized first; errors
// are typed: *SpecError (invalid spec), ErrDuplicateID, ErrQueueFull,
// ErrServerClosed. On success the job is queued (and possibly already
// dispatched) and its ID is fixed.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Workers > s.opts.TotalWorkers {
		return nil, &SpecError{Field: "workers", Msg: fmt.Sprintf(
			"job requests %d worker slots but the server budget is %d: it could never be admitted", spec.Workers, s.opts.TotalWorkers)}
	}
	cfg := spec.config()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	if spec.ID == "" {
		s.nextID++
		spec.ID = fmt.Sprintf("job-%06d", s.nextID)
	}
	if _, dup := s.jobs[spec.ID]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, spec.ID)
	}
	if len(s.queue) >= s.opts.MaxQueue {
		return nil, ErrQueueFull
	}
	s.seq++
	j := &Job{
		s:         s,
		spec:      spec,
		cfg:       cfg,
		seq:       s.seq,
		state:     StateQueued,
		updated:   make(chan struct{}),
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
	s.jobs[spec.ID] = j
	s.jobList = append(s.jobList, j)
	s.queue = append(s.queue, j)
	s.appendEventLocked(j, Event{Type: "state", State: StateQueued})
	if d := j.queueTimeout(s.opts.QueueTimeout); d > 0 {
		j.timer = time.AfterFunc(d, func() { s.expire(j) })
	}
	s.dispatchLocked()
	return j, nil
}

// queueTimeout resolves the job's queue-wait budget: the spec override when
// set, the server default otherwise (negative default = no timeout).
func (j *Job) queueTimeout(def time.Duration) time.Duration {
	if j.spec.QueueTimeoutMS > 0 {
		return time.Duration(j.spec.QueueTimeoutMS) * time.Millisecond
	}
	if def < 0 {
		return 0
	}
	return def
}

// RetryAfter estimates (in whole seconds, >= 1) how long a rejected client
// should wait before resubmitting: one second per queued job, a coarse but
// monotone backpressure signal.
func (s *Server) RetryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return 1 + len(s.queue)
}

// Job returns a submitted job by ID.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs returns all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.jobList...)
}

// Cancel requests cancellation of a job. A queued job leaves the queue and
// terminates immediately; a running job's context is cancelled, which
// aborts its pgas machine (every rank unwinds at its next barrier) and
// releases its worker slots when the run returns. Cancelling a terminal job
// is a no-op. Returns the job, or ErrUnknownJob.
func (s *Server) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch j.state {
	case StateQueued:
		s.removeQueuedLocked(j)
		j.cancelled = true
		j.err = ErrJobCancelled
		s.terminalLocked(j, StateCancelled)
		// Removing a queued job can unblock dispatch: if it was the
		// head-of-line job too big for the free budget, the next job may fit.
		s.dispatchLocked()
	case StateRunning:
		j.cancelled = true
		if j.cancel != nil {
			j.cancel(ErrJobCancelled)
		}
	}
	return j, nil
}

// Close shuts the server down: pending queued jobs are cancelled, running
// jobs' contexts are cancelled, and Close blocks until every job reaches a
// terminal state. Subsequent submissions fail with ErrServerClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, j := range append([]*Job(nil), s.queue...) {
		s.removeQueuedLocked(j)
		j.cancelled = true
		j.err = ErrServerClosed
		s.terminalLocked(j, StateCancelled)
	}
	var running []*Job
	for _, j := range s.jobList {
		if j.state == StateRunning {
			j.cancelled = true
			if j.cancel != nil {
				j.cancel(ErrServerClosed)
			}
			running = append(running, j)
		}
	}
	s.mu.Unlock()
	for _, j := range running {
		<-j.Done()
	}
}

// expire is the queue-wait timer callback: a job still queued when its
// budget elapses is removed and terminated with StateTimeout — it never
// held worker slots, so nothing is released.
func (s *Server) expire(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	s.removeQueuedLocked(j)
	j.err = ErrQueueTimeout
	s.terminalLocked(j, StateTimeout)
	s.dispatchLocked()
}

// removeQueuedLocked takes a job out of the admission queue and stops its
// expiry timer.
func (s *Server) removeQueuedLocked(j *Job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
}

// terminalLocked moves a job into a terminal state: records the transition
// event (with the error cause, if any), stamps the finish time, and closes
// Done.
func (s *Server) terminalLocked(j *Job, state string) {
	j.state = state
	j.finished = time.Now()
	ev := Event{Type: "state", State: state}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	s.appendEventLocked(j, ev)
	close(j.done)
}

// appendEventLocked appends one event to the job's log and wakes every
// stream follower (the update channel is closed and replaced).
func (s *Server) appendEventLocked(j *Job, ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.updated)
	j.updated = make(chan struct{})
}

// jobLess orders the admission queue: interactive before batch, FIFO (by
// admission sequence) within a class.
func jobLess(a, b *Job) bool {
	pa, pb := priorityRank(a.spec.Priority), priorityRank(b.spec.Priority)
	if pa != pb {
		return pa < pb
	}
	return a.seq < b.seq
}

func priorityRank(p string) int {
	if p == PriorityInteractive {
		return 0
	}
	return 1
}

// dispatchLocked grants worker slots to queued jobs. The policy is strict
// priority-ordered head-of-line: the best queued job (interactive first,
// FIFO within class) dispatches if its requested slots fit in the free
// budget; if it does not fit, nothing behind it is considered — smaller
// jobs cannot overtake, so a large job can never be starved by a stream of
// small ones. Deterministic given the queue and budget.
func (s *Server) dispatchLocked() {
	for !s.closed {
		var best *Job
		for _, j := range s.queue {
			if best == nil || jobLess(j, best) {
				best = j
			}
		}
		if best == nil || best.spec.Workers > s.freeWorkers {
			return
		}
		s.removeQueuedLocked(best)
		s.freeWorkers -= best.spec.Workers
		best.state = StateRunning
		best.started = time.Now()
		s.appendEventLocked(best, Event{Type: "state", State: StateRunning})
		go s.run(best)
	}
}

// run executes one dispatched job on its own goroutine and returns its
// worker slots when it finishes (normally, by failure, or by abort).
func (s *Server) run(j *Job) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	s.mu.Lock()
	j.cancel = cancel
	if j.cancelled {
		// Cancellation raced the dispatch: poison the context before the
		// run begins so the machine aborts at its first barrier.
		cancel(ErrJobCancelled)
	}
	s.mu.Unlock()

	res, err := s.runFn(ctx, j)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.freeWorkers += j.spec.Workers
	switch {
	case err == nil:
		j.result = res
		j.fasta = renderFASTA(res)
		s.terminalLocked(j, StateDone)
	case j.cancelled && errors.Is(err, pgas.ErrAborted):
		j.err = err
		s.terminalLocked(j, StateCancelled)
	default:
		j.err = err
		s.terminalLocked(j, StateFailed)
	}
	s.dispatchLocked()
}

// assembleJob is the default runFn: materialize the job's reads, wire the
// progress stream, and run the pipeline under the job's context on its own
// virtual machine.
func (s *Server) assembleJob(ctx context.Context, j *Job) (*core.Result, error) {
	reads, err := j.spec.BuildReads()
	if err != nil {
		return nil, err
	}
	cfg := j.cfg
	cfg.Progress = func(ev core.ProgressEvent) {
		s.mu.Lock()
		s.appendEventLocked(j, Event{Type: "stage", ProgressEvent: ev})
		s.mu.Unlock()
		if s.onStage != nil {
			s.onStage(j, ev)
		}
	}
	return core.AssembleContext(ctx, reads, cfg)
}

// renderFASTA renders the assembly output exactly as cmd/mhm writes it:
// sequences named scaffold_NNNNNN, 80-column wrapped.
func renderFASTA(res *core.Result) []byte {
	seqs := res.FinalSequences()
	names := make([]string, len(seqs))
	for i := range seqs {
		names[i] = fmt.Sprintf("scaffold_%06d", i)
	}
	return RenderFASTA(names, seqs)
}
