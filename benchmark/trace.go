package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside internal/* knows about spans yet). Req ties
// the spans of one request or slice together; Parent is the span that
// caused this one, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// tracing switched off: begin and end cost one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer's clock, also handed to core.Config.Instrument so
// stage busy times and spans share one time base.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(parent int, name string, req int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// selfTimes charges every span its duration minus the part of it its
// children cover (children of a concurrent parent overlap each other, so
// the covered part is the union of their intervals clipped to the parent),
// and sums the result per span name.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}
