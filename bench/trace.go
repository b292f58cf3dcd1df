package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module. Times are nanoseconds since the
// tracer was created; SelfNS is filled in when the trace is written.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. Spans are recorded from
// the benchmark's own files, around calls into the modules' public
// functions; span 0 is the implicit root. The mutex is for the journal
// decorator, whose Record calls arrive from the campaign's workers.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent and returns its id.
func (t *tracer) start(parent int, name string) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(parent int, name string, fn func()) time.Duration {
	id := t.start(parent, name)
	fn()
	return t.end(id)
}

// durationsMS returns the duration of every span called name, in
// milliseconds, in recording order.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// fillSelfTimes sets every span's self time: its duration minus the part of
// its interval that its child spans cover (children of concurrent workers
// may overlap, so the covered part is the union of their intervals).
func (t *tracer) fillSelfTimes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans)+1)
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range t.spans {
		p := &t.spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartNS < t.spans[kids[b]].StartNS })
		covered, until := int64(0), p.StartNS
		for _, k := range kids {
			lo, hi := max(t.spans[k].StartNS, until), min(t.spans[k].EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		p.SelfNS = p.EndNS - p.StartNS - covered
	}
}

// write stores the spans as one JSON array and returns the file's size.
func (t *tracer) write(path string) (int, error) {
	t.fillSelfTimes()
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return len(data), os.WriteFile(path, data, 0o644)
}
