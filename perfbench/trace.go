package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer. Spans of one request share Req;
// Parent is 0 for a request's root span.
type Span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Req    int               `json:"req"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]int64  `json:"attrs,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
}

// Tracer keeps spans in memory until Write. It serves one goroutine.
type Tracer struct {
	epoch time.Time
	Spans []Span
}

func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) Start(req, parent int, name string) int {
	t.Spans = append(t.Spans, Span{ID: len(t.Spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.epoch))})
	return len(t.Spans)
}

// End closes span id.
func (t *Tracer) End(id int) { t.Spans[id-1].End = int64(time.Since(t.epoch)) }

// Attr sets a numeric attribute on span id.
func (t *Tracer) Attr(id int, key string, v int64) {
	s := &t.Spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[key] = v
}

// Label sets a string attribute on span id.
func (t *Tracer) Label(id int, key, v string) {
	s := &t.Spans[id-1]
	if s.Labels == nil {
		s.Labels = map[string]string{}
	}
	s.Labels[key] = v
}

// Write stores every span as one JSON file.
func (t *Tracer) Write(path string) error {
	b, err := json.Marshal(t.Spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadSpans loads a span file written by Tracer.Write.
func ReadSpans(path string) ([]Span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []Span
	return spans, json.Unmarshal(b, &spans)
}

// SelfTimes returns each span's duration minus the part of its interval
// that its child spans cover, keyed by span id.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, curStart, curEnd := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		covered += curEnd - curStart
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}
