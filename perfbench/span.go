package main

// Span recording for the traced run. Spans are recorded by the benchmark
// itself, around each public call it makes into a layer of the program; the
// program carries no tracing of its own here. Each goroutine that issues
// calls owns one track, so recording takes no lock. A nil *track records
// nothing, which is how the untraced runs call the same code.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"mealib/internal/telemetry"
)

// span is one timed call. Spans of a track are stored in begin order and
// nest properly: a span's children begin and end inside it.
type span struct {
	name  string // "apps.stap.doppler"
	layer string // the module the call enters: "apps", "mealibrt", ...
	unit  int64  // id of the frame, solve, pass or request it belongs to
	// parent is the index of the enclosing span on the same track, -1 for
	// a unit's root span.
	parent     int
	start, end time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer owns every track of one traced phase.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track is the span log of one goroutine.
type track struct {
	t     *tracer
	name  string
	spans []span
	open  []int // indices of spans begun and not yet ended
}

// track starts a new span log; nil on a nil tracer.
func (t *tracer) track(name string) *track {
	if t == nil {
		return nil
	}
	tk := &track{t: t, name: name}
	t.mu.Lock()
	t.tracks = append(t.tracks, tk)
	t.mu.Unlock()
	return tk
}

// all returns the tracks; call it once the traced goroutines are done.
func (t *tracer) all() []*track {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tracks
}

func (tk *track) begin(layer, name string, unit int64) {
	if tk == nil {
		return
	}
	parent := -1
	if n := len(tk.open); n > 0 {
		parent = tk.open[n-1]
	}
	tk.open = append(tk.open, len(tk.spans))
	tk.spans = append(tk.spans, span{name: name, layer: layer, unit: unit, parent: parent, start: time.Since(tk.t.epoch)})
}

func (tk *track) end() {
	if tk == nil {
		return
	}
	n := len(tk.open)
	tk.spans[tk.open[n-1]].end = time.Since(tk.t.epoch)
	tk.open = tk.open[:n-1]
}

// call records f as one span named name in layer.
func (tk *track) call(layer, name string, unit int64, f func() error) error {
	tk.begin(layer, name, unit)
	err := f()
	tk.end()
	return err
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	for i, s := range spans {
		covered := time.Duration(0)
		reach := s.start
		// Children are in begin order; count each instant once.
		for _, k := range kids[i] {
			lo, hi := spans[k].start, spans[k].end
			if lo < reach {
				lo = reach
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSplit is the traced run's per-layer view: for every unit, its wall
// time and the self time of each layer inside it.
type layerSplit struct {
	units   int
	wall    time.Duration            // Σ unit root durations
	self    map[string]time.Duration // layer → Σ self time over all units
	callDur map[string][]time.Duration
}

// split checks and folds the recorded spans. Every span must belong to a
// unit with one root, carry that unit's id, and the self times of a unit's
// spans must add up to its root's duration.
func (t *tracer) split() (*layerSplit, error) {
	ls := &layerSplit{self: map[string]time.Duration{}, callDur: map[string][]time.Duration{}}
	for _, tk := range t.all() {
		if len(tk.open) != 0 {
			return nil, fmt.Errorf("track %s: %d span(s) never ended", tk.name, len(tk.open))
		}
		self := selfTimes(tk.spans)
		var root int
		var sum time.Duration
		flush := func() error {
			if sum != tk.spans[root].dur() {
				return fmt.Errorf("track %s unit %d: layer self times sum to %v, unit took %v",
					tk.name, tk.spans[root].unit, sum, tk.spans[root].dur())
			}
			return nil
		}
		for i, s := range tk.spans {
			if s.parent < 0 {
				if i > 0 {
					if err := flush(); err != nil {
						return nil, err
					}
				}
				root, sum = i, 0
				ls.units++
				ls.wall += s.dur()
			} else if s.unit != tk.spans[root].unit {
				return nil, fmt.Errorf("track %s: span %s carries unit %d inside unit %d",
					tk.name, s.name, s.unit, tk.spans[root].unit)
			}
			sum += self[i]
			ls.self[s.layer] += self[i]
			ls.callDur[s.name] = append(ls.callDur[s.name], s.dur())
		}
		if len(tk.spans) > 0 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	return ls, nil
}

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace renders every track as one thread of Chrome trace_event JSON
// and checks the result with telemetry.ValidateChromeTrace.
func (t *tracer) chromeTrace() ([]byte, error) {
	evs := []chromeEvent{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "perfbench"}}}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for i, tk := range t.all() {
		tid := i + 1
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": fmt.Sprintf("%s #%d", tk.name, tid)}})
		var stack []int
		pop := func() {
			s := tk.spans[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			evs = append(evs, chromeEvent{Name: s.name, Cat: s.layer, Ph: "E", TS: us(s.end), PID: 1, TID: tid})
		}
		for j, s := range tk.spans {
			for len(stack) > 0 && stack[len(stack)-1] != s.parent {
				pop()
			}
			args := map[string]any{"id": s.unit}
			if s.parent >= 0 {
				args["parent"] = tk.spans[s.parent].name
			}
			evs = append(evs, chromeEvent{Name: s.name, Cat: s.layer, Ph: "B", TS: us(s.start), PID: 1, TID: tid, Args: args})
			stack = append(stack, j)
		}
		for len(stack) > 0 {
			pop()
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		return nil, err
	}
	if _, err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// median returns the median of ds (0 for none); ds is sorted in place.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	n := len(ds)
	if n%2 == 1 {
		return ds[n/2]
	}
	return (ds[n/2-1] + ds[n/2]) / 2
}
