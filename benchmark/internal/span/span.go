// Package span is the benchmark's in-memory span recorder and the
// self-time calculator that turns a span tree into per-layer times. The
// program under test records nothing: every span is opened and closed by
// the benchmark's own files, around its calls into a layer.
package span

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); spans of one request share Request.
type Span struct {
	ID      uint64 `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since the recorder was created
	End     int64  `json:"end"`
	Parent  uint64 `json:"parent"`
	Request uint64 `json:"request_id"`
}

// Duration is the span's length in nanoseconds.
func (s Span) Duration() int64 { return s.End - s.Start }

// Recorder collects spans in memory until the run ends. A nil *Recorder
// is valid and records nothing, so call sites need no tracing switch.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	next  uint64
	spans []Span
}

// NewRecorder starts an empty recorder; span times count from now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Open is a span that has started and not yet ended.
type Open struct {
	r    *Recorder
	span Span
}

// Begin opens a span. On a nil recorder it returns a nil *Open, whose ID
// is 0 and whose End does nothing.
func (r *Recorder) Begin(name string, parent, request uint64) *Open {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &Open{r: r, span: Span{
		ID: id, Name: name, Parent: parent, Request: request,
		Start: int64(time.Since(r.epoch)),
	}}
}

// ID is the open span's identifier, for its children to name as parent.
func (o *Open) ID() uint64 {
	if o == nil {
		return 0
	}
	return o.span.ID
}

// End closes the span and stores it.
func (o *Open) End() {
	if o == nil {
		return
	}
	o.span.End = int64(time.Since(o.r.epoch))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.span)
	o.r.mu.Unlock()
}

// Spans returns a copy of every closed span, ordered by start time.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Children that overlap one
// another (a parallel fan-out) are merged first, so the covered part is
// counted once; a child reaching outside its parent is clipped to it.
func SelfTimes(spans []Span) map[uint64]int64 {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Duration() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if curHi < curLo || lo > curHi {
			flush()
			curLo, curHi = lo, hi
			continue
		}
		curHi = max(curHi, hi)
	}
	flush()
	return total
}

// SelfByName sums self time over every span of each name.
func SelfByName(spans []Span) map[string]int64 {
	self := SelfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// A Rollup is every tree whose root has one name, averaged: how many there
// were, how long the root lasted, and where inside the tree that time was
// spent, as the mean self time per span name (the root's own included).
type Rollup struct {
	Root   string
	Count  int
	MeanNs float64
	SelfNs map[string]float64
}

// RollupByRoot averages the span trees by the name of their root, sorted
// by root name.
func RollupByRoot(spans []Span) []Rollup {
	self := SelfTimes(spans)
	byID := make(map[uint64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s Span) Span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	rows := make(map[string]*Rollup)
	for _, s := range spans {
		root := rootOf(s)
		r := rows[root.Name]
		if r == nil {
			r = &Rollup{Root: root.Name, SelfNs: make(map[string]float64)}
			rows[root.Name] = r
		}
		if s.ID == root.ID {
			r.Count++
			r.MeanNs += float64(s.Duration())
		}
		r.SelfNs[s.Name] += float64(self[s.ID])
	}
	out := make([]Rollup, 0, len(rows))
	for _, r := range rows {
		r.MeanNs /= float64(r.Count)
		for name := range r.SelfNs {
			r.SelfNs[name] /= float64(r.Count)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Root < out[j].Root })
	return out
}
