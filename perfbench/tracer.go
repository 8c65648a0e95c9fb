package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one request (a serve job, a grid cell, a probe)
// share Req; Parent is the ID of the span that caused this one (0 for a
// root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untimed and traced code paths share one implementation.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setReq sets the request ID of span id, once it is known (a job's ID
// arrives with the response to its submission).
func (t *tracer) setReq(id int, req string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Req = req
	t.mu.Unlock()
}

// record adds an already-finished span whose interval was observed from
// outside (a grid cell known only by its completion time).
func (t *tracer) record(name, req string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// spanTotal is one span name's aggregate: call count, total duration and
// self time (duration minus the part of the interval child spans cover).
type spanTotal struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// totals aggregates spans by name, in descending self time.
func (t *tracer) totals() []spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*spanTotal)
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		d := s.End - s.Start
		self := d - covered(s, children[s.ID])
		a := by[s.Name]
		if a == nil {
			a = &spanTotal{Name: s.Name}
			by[s.Name] = a
		}
		a.Count++
		a.Total += time.Duration(d)
		a.Self += time.Duration(self)
	}
	out := make([]spanTotal, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Self != out[k].Self {
			return out[i].Self > out[k].Self
		}
		return out[i].Name < out[k].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, k int) bool { return ivs[i].a < ivs[k].a })
	var sum, end int64 = 0, parent.Start
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			sum += v.b - v.a
			end = v.b
		}
	}
	return sum
}

// formatTotals renders the span aggregate as a text table.
func formatTotals(ts []spanTotal) string {
	s := fmt.Sprintf("%-34s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range ts {
		s += fmt.Sprintf("%-34s %7d %12.3f %12.3f\n", t.Name, t.Count,
			float64(t.Total)/1e6, float64(t.Self)/1e6)
	}
	return s
}
