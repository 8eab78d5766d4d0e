package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer: its name, its interval in
// nanoseconds since the tracer's epoch, and the index of the span that
// caused it (-1 for a root).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// Tracer records spans from one goroutine. Spans stay in memory until
// WriteFile.
type Tracer struct {
	epoch  time.Time
	spans  []Span
	open   []int // indices of the spans currently running, innermost last
	counts map[string]float64
}

// NewTracer starts an empty recording.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), counts: make(map[string]float64)}
}

// Run calls f inside a span named name, a child of the innermost
// running span.
func (t *Tracer) Run(name string, f func()) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Start: t.now(), Parent: parent})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
}

// Count adds n to a named count recorded at a layer boundary.
func (t *Tracer) Count(name string, n float64) { t.counts[name] += n }

// Add records a finished span whose interval was measured elsewhere,
// such as a job's queue wait read from the daemon's status timestamps.
// It returns the span's index for use as a parent.
func (t *Tracer) Add(name string, start, end time.Time, parent int) int {
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// WriteFile stores the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// LayerTime is one span name's summed self time and span count.
type LayerTime struct {
	Self  time.Duration
	Count int
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children. Overlapping children are
// counted once, and a child reaching outside its parent only covers the
// part inside.
func SelfTimes(spans []Span) map[string]LayerTime {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]LayerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.Self += time.Duration(s.End - s.Start - covered(s, children[i]))
		lt.Count++
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's interval.
func covered(parent Span, kids []Span) int64 {
	ivs := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := parent.Start
	for _, iv := range ivs {
		lo := max(iv[0], end)
		if iv[1] > lo {
			total += iv[1] - lo
		}
		end = max(end, iv[1])
	}
	return total
}
