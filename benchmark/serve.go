package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"mhmgo/internal/eval"
	"mhmgo/internal/fastx"
	"mhmgo/internal/pgas"
	"mhmgo/internal/serve"
)

// The server workload: an in-process mhmserve behind a loopback HTTP
// listener, benchProcs worker slots, and benchProcs closed-loop tenants
// (each waits for its job's FASTA before submitting the next one, as a
// caller of an assembly service does). Every job uploads its reads inline.
// A tenant cycles through a fixed pool of distinct inputs, so the simulated
// clock and quality numbers are taken over the same set of assemblies on
// every run, however many jobs the window fits, and a pool entry that is
// assembled twice must give the same bytes twice.

// poolPerTenant is sized so that two tenants get around their pools about
// twice in a 24 s window: jobs of this size differ in cost by a factor of
// three, and over ten seeds the summed cost of 16 of them still moved by 10 %.
const poolPerTenant = 20

// poolEntry is one distinct job input and, once a job over it has completed,
// the exact outputs every later job over it must reproduce.
type poolEntry struct {
	in   input
	body []byte

	done     bool
	fastaSHA string
	simS     float64
	events   []stageEvent
	stats    pgas.CommStats
	quality  eval.Report
}

// jobTiming is one completed job as its tenant saw it.
type jobTiming struct {
	tenant, entry      int
	id                 string
	submitted, running time.Time
	done, fetched      time.Time
	events             []stageEvent
	nEvents            int
	fasta              []byte
}

// serveRun is the per-invocation state of the server workload.
type serveRun struct {
	w    workload
	rec  *record
	pool [][]*poolEntry // [tenant][entry]

	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when the HTTP server's goroutine has returned
	base   string
	client *http.Client
}

// start builds the inputs and brings the server up; this is the workload's
// set-up.
func (s *serveRun) start(seed int64) error {
	s.pool = make([][]*poolEntry, benchProcs)
	for t := range s.pool {
		for j := 0; j < poolPerTenant; j++ {
			in := makeInput(s.w, t*poolPerTenant+j, seed)
			var fastq bytes.Buffer
			fw := fastx.NewWriter(&fastq, fastx.FormatFASTQ, 0)
			for _, r := range in.reads {
				if err := fw.Write(fastx.Record{ID: r.ID, Seq: r.Seq, Qual: r.Qual}); err != nil {
					return err
				}
			}
			if err := fw.Flush(); err != nil {
				return err
			}
			lib := s.w.libs[0]
			var body bytes.Buffer
			enc := json.NewEncoder(&body)
			enc.SetEscapeHTML(false) // quality strings hold '<', '>' and '&'
			err := enc.Encode(serve.JobSpec{
				Workers: 1, Ranks: s.w.ranks, RanksPerNode: s.w.ranksPerNode,
				Libraries: []serve.LibrarySpec{{Name: lib.Name, InsertSize: lib.InsertSize, InsertStd: lib.InsertStd, Reads: fastq.String()}},
			})
			if err != nil {
				return err
			}
			s.pool[t] = append(s.pool[t], &poolEntry{in: in, body: body.Bytes()})
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = serve.New(serve.Options{TotalWorkers: benchProcs})
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: benchProcs}}
	return nil
}

// stop shuts the server down and waits for its goroutines.
func (s *serveRun) stop() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	<-s.served
	s.srv.Close()
}

// errRejected is a submission the server refused with 429; with as many
// tenants as worker slots the admission queue never fills, so any rejection
// is a failed operation.
var errRejected = errors.New("submit: rejected (429)")

// runJob is one closed-loop iteration: submit, follow the NDJSON event
// stream to a terminal state, fetch the FASTA. stamp records the host time
// of every event for the traced run.
func (s *serveRun) runJob(tenant, entry int, stamp bool) (jobTiming, error) {
	jt := jobTiming{tenant: tenant, entry: entry, submitted: time.Now()}
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(s.pool[tenant][entry].body))
	if err != nil {
		return jt, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return jt, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return jt, errRejected
	}
	if resp.StatusCode != http.StatusAccepted {
		return jt, fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	var snap struct {
		Spec struct {
			ID string `json:"id"`
		} `json:"spec"`
	}
	if err := json.Unmarshal(reply, &snap); err != nil {
		return jt, fmt.Errorf("submit reply: %w", err)
	}
	jt.id = snap.Spec.ID

	resp, err = s.client.Get(s.base + "/v1/jobs/" + jt.id + "/events?format=ndjson")
	if err != nil {
		return jt, err
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		ev, err := serve.DecodeEvent(sc.Bytes())
		if err != nil {
			resp.Body.Close()
			return jt, err
		}
		jt.nEvents++
		switch {
		case ev.Type == "state":
			state = ev.State
			if stamp && ev.State == serve.StateRunning {
				jt.running = time.Now()
			}
		case stamp:
			jt.events = append(jt.events, stageEvent{ev.Stage, ev.Iteration, ev.K, ev.SimSeconds, time.Now().UnixNano()})
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return jt, err
	}
	if state != serve.StateDone {
		return jt, fmt.Errorf("job %s ended %q", jt.id, state)
	}
	jt.done = time.Now()
	if jt.running.IsZero() {
		jt.running = jt.submitted
	}

	resp, err = s.client.Get(s.base + "/v1/jobs/" + jt.id + "/fasta")
	if err != nil {
		return jt, err
	}
	jt.fasta, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return jt, err
	}
	if resp.StatusCode != http.StatusOK {
		return jt, fmt.Errorf("fasta: status %d", resp.StatusCode)
	}
	jt.fetched = time.Now()
	return jt, nil
}

// verify checks one completed job's output against its pool entry: the
// first job over an entry fixes the expected bytes and simulated seconds,
// every later one must repeat them.
func (s *serveRun) verify(jt jobTiming) error {
	sha, seqs, err := parseFASTA(jt.fasta)
	if err != nil {
		return fmt.Errorf("job %s: %w", jt.id, err)
	}
	job, err := s.srv.Job(jt.id)
	if err != nil {
		return err
	}
	res := job.Result()
	e := s.pool[jt.tenant][jt.entry]
	if len(e.events) == 0 {
		e.events = jt.events // stamped only in the traced window
	}
	if e.done {
		if sha != e.fastaSHA || math.Float64bits(res.SimSeconds) != math.Float64bits(e.simS) {
			return fmt.Errorf("job %s: output differs from the first job over the same input", jt.id)
		}
		return nil
	}
	if err := onlyACGTN(seqs); err != nil {
		return fmt.Errorf("job %s: %w", jt.id, err)
	}
	e.done, e.fastaSHA, e.simS, e.stats = true, sha, res.SimSeconds, res.Stats
	e.quality = eval.Evaluate("benchmark", seqs, e.in.comm, eval.DefaultOptions())
	// The genome-fraction floor holds for the pool as a whole (checked by
	// the caller): one 2 kb genome at 5x can legitimately fall below it.
	if e.quality.Misassemblies > maxMisassemblies {
		return fmt.Errorf("job %s: %d misassemblies above the ceiling %d", jt.id, e.quality.Misassemblies, maxMisassemblies)
	}
	return nil
}

// window is one measured interval of closed-loop load.
type window struct {
	jobs     []jobTiming
	rejected int
	wallS    float64
	cpuS     float64
	allocB   uint64
}

// selfUsage returns this process's user + system CPU seconds and peak
// resident set so far.
func selfUsage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), rssMB(&ru)
}

// load drives the tenants for the given time; each keeps submitting until
// the time is up and it has covered its pool once.
func (s *serveRun) load(ctx context.Context, dur time.Duration, stamp bool) window {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, _ := selfUsage()
	start := time.Now()
	perTenant := make([][]jobTiming, len(s.pool))
	failures := make([][]error, len(s.pool))
	var wg sync.WaitGroup
	for t := range s.pool {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for j := 0; ctx.Err() == nil && (j < poolPerTenant || time.Since(start) < dur); j++ {
				jt, err := s.runJob(t, j%poolPerTenant, stamp)
				if err != nil {
					failures[t] = append(failures[t], fmt.Errorf("tenant %d job %d: %w", t, j, err))
					continue
				}
				perTenant[t] = append(perTenant[t], jt)
			}
		}(t)
	}
	wg.Wait()
	cpu1, _ := selfUsage()
	w := window{wallS: time.Since(start).Seconds(), cpuS: cpu1 - cpu0}
	runtime.ReadMemStats(&ms1)
	w.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	for t := range perTenant {
		for _, err := range failures[t] {
			s.rec.Attempted++
			s.rec.fail("%v", err)
			if errors.Is(err, errRejected) {
				w.rejected++
			}
		}
		for _, jt := range perTenant[t] {
			s.rec.Attempted++
			if err := s.verify(jt); err != nil {
				s.rec.fail("%v", err)
				continue
			}
			w.jobs = append(w.jobs, jt)
		}
	}
	return w
}

func (w window) latencies() []float64 {
	var l []float64
	for _, jt := range w.jobs {
		l = append(l, jt.fetched.Sub(jt.submitted).Seconds())
	}
	return l
}

// poolLatency is the mean over the pool entries of each entry's median job
// latency. Jobs differ in cost by a factor of three, so the plain median of
// all latencies swings with which jobs the window happened to fit; this
// covers the same inputs with the same weights on every run.
func (w window) poolLatency() float64 {
	byEntry := map[[2]int][]float64{}
	for _, jt := range w.jobs {
		key := [2]int{jt.tenant, jt.entry}
		byEntry[key] = append(byEntry[key], jt.fetched.Sub(jt.submitted).Seconds())
	}
	var medians []float64
	for t := 0; t < benchProcs; t++ {
		for e := 0; e < poolPerTenant; e++ {
			medians = append(medians, median(byEntry[[2]int{t, e}]))
		}
	}
	return mean(medians)
}

// runServe measures the server workload. With tracing off one window of the
// given length yields the end-to-end metrics; with tracing on, a traced window
// of that length yields the per-layer metrics, after an untraced one of half
// the length that core.trace_overhead is measured against.
func runServe(ctx context.Context, w workload, seed int64, seconds int, traced bool, rec *record, tr *tracer) error {
	dir, err := os.MkdirTemp(outDir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	root := tr.begin(0, 0, "run:"+w.name)
	defer tr.end(root)

	s := &serveRun{w: w, rec: rec}
	var setup []float64
	setupSpan := tr.begin(root, 0, "setup")
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			s.stop()
		}
		t0 := time.Now()
		if err := s.start(seed); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	tr.end(setupSpan)
	defer s.stop()

	dur := time.Duration(seconds) * time.Second
	var base, measured window
	if traced {
		base = s.load(ctx, dur/2, false)
		measured = s.load(ctx, dur, true)
	} else {
		measured = s.load(ctx, dur, false)
	}
	if len(measured.jobs) == 0 {
		return nil
	}

	// Exact numbers, over the pool: every entry was assembled at least once.
	var simS, gf, len1k float64
	var misassemblies int
	var stats pgas.CommStats
	var entries []*poolEntry
	for _, tenant := range s.pool {
		for _, e := range tenant {
			if !e.done {
				rec.invalidate("a pool entry was never assembled")
				return nil
			}
			entries = append(entries, e)
			simS += e.simS
			gf += e.quality.GenomeFraction / float64(benchProcs*poolPerTenant)
			len1k += float64(e.quality.LenAtLeast[1000])
			misassemblies += e.quality.Misassemblies
			stats.Add(e.stats)
		}
	}
	if gf < minGenomeFraction {
		rec.invalidate("mean genome fraction %.3f below the floor %.2f", gf, minGenomeFraction)
	}

	m := rec.Metrics
	lat := measured.latencies()
	if !traced {
		ls := sorted(lat)
		fmt.Printf("wall_s over %d jobs: median %.3f min %.3f max %.3f\n", len(ls), median(ls), ls[0], ls[len(ls)-1])
		m.timed("setup_s", median(setup))
		m.timed("wall_s", measured.poolLatency())
		m.timed("cpu_s", measured.cpuS/float64(len(measured.jobs)))
		m.exact("sim_s", simS)
		m.exact("genome_fraction", gf)
		m.exact("len_ge_1k", len1k)
		return nil
	}

	// [S] per-job stage spans, stamped client-side from the event stream.
	// Host time is the mean per job over the traced window; simulated time
	// is the mean per pool entry, which repeats exactly.
	layers := map[string]*layerClocks{}
	var queueS, runS []float64
	events := 0
	for _, jt := range measured.jobs {
		track := jt.tenant + 1
		job := tr.add(root, track, "job", jt.submitted, jt.fetched, map[string]any{"id": jt.id, "pool_entry": jt.entry})
		tr.add(job, track, "queued", jt.submitted, jt.running, nil)
		asm := tr.add(job, track, "running", jt.running, jt.done, nil)
		stageSpans(tr, asm, track, jt.running.UnixNano(), 0, jt.events, layers)
		tr.add(job, track, "fetch-fasta", jt.done, jt.fetched, nil)
		events += jt.nEvents
		if j, err := s.srv.Job(jt.id); err == nil {
			jm := j.Metrics()
			queueS = append(queueS, jm.QueueMS/1e3)
			runS = append(runS, jm.RunMS/1e3)
		}
	}
	for _, l := range layers {
		l.host /= float64(len(measured.jobs))
		l.sim = 0
	}
	for _, e := range entries {
		prev := 0.0
		for _, ev := range e.events {
			layers[stageLayer[ev.Stage]].sim += (ev.Sim - prev) / float64(len(entries))
			prev = ev.Sim
		}
	}
	stageMetrics(m, layers)
	runStats(m, stats)
	m.exact("eval.misassemblies", float64(misassemblies))

	tailPct, _ := highestPercentile(len(lat))
	m.timed("serve.jobs", float64(len(lat)))
	m.timed("serve.jobs_per_s", ratio(float64(len(lat)), measured.wallS))
	m.timed("serve.latency_p50_s", median(lat))
	m.timed("serve.latency_tail_pct", tailPct)
	m.timed("serve.latency_tail_s", percentile(lat, tailPct))
	m.timed("serve.queue_wait_p50_s", median(queueS))
	m.timed("serve.run_p50_s", median(runS))
	m.exact("serve.rejected", float64(base.rejected+measured.rejected))
	m.exact("serve.events_per_job", float64(events)/float64(len(measured.jobs)))
	m.timed("core.trace_overhead", ratio(measured.poolLatency(), base.poolLatency()))

	_, peakRSS := selfUsage()
	m.timed("host.peak_rss_mb", peakRSS)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.timed("host.alloc_mb", float64(measured.allocB)/(1<<20))
	m.timed("host.gc_cpu_frac", ms.GCCPUFraction)

	// [C] and [P] on the first pool entry, at a job's machine shape.
	first := s.pool[0][0]
	chainSpan := tr.begin(root, 0, "layer-chain")
	chain, err := runChain(tr, chainSpan, w.ranks, w.ranksPerNode, w.libs, first.in.reads)
	tr.end(chainSpan)
	if err != nil {
		return err
	}
	chain.metrics(m)
	return runProbes(tr, root, w, seed, first.in.reads, nil, dir, first.body, m)
}
