package main

import (
	"encoding/json"
	"io"
	"time"
)

// layers are the repository's modules whose public calls the traced
// run times; each gets a <layer>.self_s metric.
var layers = []string{
	"netlist", "fault", "logicsim", "atpg", "faultsim", "circuits",
	"defect", "tester", "estimate", "campaign", "sweep", "sweepd",
}

// span is one timed call: which layer's public function, when it
// started and ended, the span that caused it, and the operation (one
// prepare, one lot, one campaign) it belongs to.
type span struct {
	id, parent, op int
	layer, name    string
	start, end     time.Duration
}

// tracer keeps spans in memory for one goroutine and writes them out
// at the end. Disabled, it still runs every call but records nothing,
// which is what the tracing-overhead comparison runs against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // indices into spans of the enclosing spans
	curOp int
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

// newOp starts a new operation; spans opened from now on carry its id.
func (t *tracer) newOp() { t.curOp++ }

// do runs fn inside a span and returns its wall time.
func (t *tracer) do(layer, name string, fn func() error) (time.Duration, error) {
	if !t.on {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	s := span{id: len(t.spans) + 1, op: t.curOp, layer: layer, name: name}
	if n := len(t.open); n > 0 {
		s.parent = t.spans[t.open[n-1]].id
	}
	idx := len(t.spans)
	t.spans = append(t.spans, s)
	t.open = append(t.open, idx)
	t.spans[idx].start = time.Since(t.t0)
	err := fn()
	t.spans[idx].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	return t.spans[idx].end - t.spans[idx].start, err
}

// selfTimes returns each layer's self time in seconds: the summed
// durations of its spans minus the parts their child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.layer] += (s.end - s.start - child[s.id]).Seconds()
	}
	return self
}

// traceEvent is one Chrome trace-event ("X" complete event); Perfetto
// and chrome://tracing open the file as is.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans in Chrome trace-event JSON: name,
// start, end, causing span and operation id per span.
func (t *tracer) writeChrome(w io.Writer) error {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{
				"span": s.id, "parent": s.parent, "op": s.op,
				"end_us": float64(s.end.Nanoseconds()) / 1e3,
			},
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
}
