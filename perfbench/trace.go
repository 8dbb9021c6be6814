package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced call into a layer: its name, start and end in
// nanoseconds since the tracer began, the index of the span that caused
// it (-1 for a root) and the op it belongs to.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil *tracer is the untraced path: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span at now and returns its index.
func (tr *tracer) begin(name string, parent, op int) int {
	if tr == nil {
		return -1
	}
	return tr.beginAt(name, parent, op, time.Now())
}

// beginAt opens a span that started at t (an open-loop op starts at its
// due time, not when the generator got to it).
func (tr *tracer) beginAt(name string, parent, op int, t time.Time) int {
	if tr == nil {
		return -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Name: name, Start: int64(t.Sub(tr.t0)), Parent: parent, Op: op})
	return id
}

// end closes span i at now.
func (tr *tracer) end(i int) {
	if tr == nil {
		return
	}
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	tr.spans[i].End = now
	tr.mu.Unlock()
}

// call runs f inside a span named name.
func (tr *tracer) call(name string, parent, op int, f func()) {
	i := tr.begin(name, parent, op)
	f()
	tr.end(i)
}

// layerTimes is the result of attributing a trace: for each span name,
// its self time (duration minus the part of it covered by child spans)
// summed over the given roots' subtrees, plus the roots' own total.
type layerTimes struct {
	self  map[string]time.Duration
	roots int
	total time.Duration // summed root durations
}

// attribute computes self times over the subtrees of every root span
// named rootName. Children of one parent never overlap here (each op is
// serial inside), so a parent's covered time is the sum of its
// children's durations.
func (tr *tracer) attribute(rootName string) layerTimes {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	lt := layerTimes{self: map[string]time.Duration{}}
	children := make([]time.Duration, len(tr.spans))
	inRoot := make([]bool, len(tr.spans))
	for i, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
			inRoot[i] = inRoot[s.Parent]
		} else {
			inRoot[i] = s.Name == rootName
		}
	}
	for i, s := range tr.spans {
		if !inRoot[i] {
			continue
		}
		d := time.Duration(s.End - s.Start)
		if s.Parent < 0 {
			lt.roots++
			lt.total += d
		}
		lt.self[s.Name] += d - children[i]
	}
	return lt
}

// perOp returns the self time of a layer per root op, in milliseconds.
func (lt layerTimes) perOp(name string) float64 {
	if lt.roots == 0 {
		return 0
	}
	return ms(lt.self[name]) / float64(lt.roots)
}

// coverage is the share of root time spent in named layers, that is
// everything but the roots' own self time.
func (lt layerTimes) coverage(rootName string) float64 {
	if lt.total == 0 {
		return 0
	}
	return 1 - float64(lt.self[rootName])/float64(lt.total)
}

// durations returns the durations of every span named name, in ms.
func (tr *tracer) durations(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines, one span per line, in the order
// they were opened.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace flush: %w", err)
	}
	return f.Close()
}
