package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval around a call into a layer, or one phase
// derived from event-store records. Spans of one benchmark operation (a
// job, a checkpoint, a recovery episode, a layer-driver batch) share Op;
// Parent links a span to the span that caused it (0 = root).
type Span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Op     int64     `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s Span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how untraced runs stay free of
// tracing work.
type tracer struct {
	mu     sync.Mutex
	spans  []Span
	nextID int64
	nextOp int64
}

// newOp allocates an operation id (0 when tracing is off).
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a finished span and returns its id.
func (t *tracer) add(op, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, Span{ID: t.nextID, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return t.nextID
}

// begin records an open span (its end is set by end) and returns its id,
// so calls made inside it can name it as their parent.
func (t *tracer) begin(op, parent int64, name string, start time.Time) int64 {
	return t.add(op, parent, name, start, time.Time{})
}

// end closes a span opened by begin.
func (t *tracer) end(id int64, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at // ids are 1-based indexes into spans
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the kids' intervals clipped to parent.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// spanMs collects the durations, in milliseconds, of every span named
// name.
func spanMs(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// childMs collects the durations, in milliseconds, of the spans named name
// whose parent is named parent.
func childMs(spans []Span, parent, name string) []float64 {
	names := make(map[int64]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && names[s.Parent] == parent {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfMs collects the self times, in milliseconds, of every span named
// name.
func selfMs(spans []Span, self map[int64]time.Duration, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[s.ID]))
		}
	}
	return out
}
