package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around the calls into each layer and from the
// public progress hook; they stay in memory until the run ends.
type span struct {
	Parent int // id (position + 1) of the causing span; 0 for the root
	Name   string
	Track  int // trace-viewer thread: concurrent tenants get their own
	Start  time.Time
	End    time.Time
	Args   map[string]any
}

// tracer collects the spans of one traced run. A nil tracer records
// nothing, which is how end-to-end runs keep tracing off.
type tracer struct {
	mu       sync.Mutex
	workload string
	runID    string
	spans    []span
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{workload: workload, runID: fmt.Sprintf("%s-s%d-%d", workload, seed, time.Now().UnixNano())}
}

// add records a finished span and returns its id for children to name as
// their parent.
func (t *tracer) add(parent, track int, name string, start, end time.Time, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Parent: parent, Name: name, Track: track, Start: start, End: end, Args: args})
	return len(t.spans)
}

// begin opens a span that end closes, for intervals whose children are
// recorded while they run.
func (t *tracer) begin(parent, track int, name string) int {
	now := time.Now()
	return t.add(parent, track, name, now, now, nil)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Now()
}

// write stores the spans as Chrome trace-event JSON (complete "X" events,
// microseconds since the earliest span), which chrome://tracing, Perfetto
// and speedscope open directly.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var origin time.Time
	for _, s := range t.spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"workload": t.workload, "run": t.runID, "span": i + 1, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: t.workload, Ph: "X",
			TS:  float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Track, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stageLayer maps a core stage name to the internal package that does its
// work; the per-layer stage metrics are summed under these names.
var stageLayer = map[string]string{
	"kmer_analysis":  "kmeranalysis",
	"kmer_merge":     "kmeranalysis",
	"dbg_traversal":  "dbg",
	"contig_refine":  "cgraph",
	"alignment":      "aligner",
	"local_assembly": "localasm",
	"scaffolding":    "scaffold",
}

// stageLayers lists the six stage layers in pipeline order.
var stageLayers = []string{"kmeranalysis", "dbg", "cgraph", "aligner", "localasm", "scaffold"}

// layerClocks accumulates one layer's time on both clocks.
type layerClocks struct{ host, sim float64 }

// stageSpans turns the stamped stage-end events of one assembly into spans
// (a stage starts where the previous one ended) and adds their durations to
// the per-layer totals. startNS/startSim are the clocks when the first stage
// began. Attribution limits, by construction: what runs between two stage-end
// events belongs to the later stage, so kmer_analysis of iteration >= 1
// includes the read-localization exchange, and scaffolding includes its own
// alignment rounds.
func stageSpans(t *tracer, parent, track int, startNS int64, startSim float64, events []stageEvent, into map[string]*layerClocks) {
	prevNS, prevSim := startNS, startSim
	for _, ev := range events {
		layer := stageLayer[ev.Stage]
		if into[layer] == nil {
			into[layer] = &layerClocks{}
		}
		into[layer].host += float64(ev.HostNS-prevNS) / 1e9
		into[layer].sim += ev.Sim - prevSim
		t.add(parent, track, ev.Stage, time.Unix(0, prevNS), time.Unix(0, ev.HostNS), map[string]any{
			"layer": layer, "iteration": ev.Iteration, "k": ev.K, "sim_start": prevSim, "sim_end": ev.Sim,
		})
		prevNS, prevSim = ev.HostNS, ev.Sim
	}
}
