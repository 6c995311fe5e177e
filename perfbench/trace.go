package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). Start and End are offsets from the tracer's epoch.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced code paths call it unconditionally.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer whose offsets count from epoch; tracers
// sharing an epoch write comparable spans.
func NewTracer(epoch time.Time) *Tracer { return &Tracer{epoch: epoch} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name string, req int, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// End closes the span with the given ID.
func (t *Tracer) End(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteSpans writes spans as JSON lines, one span a line.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (work
// done in parallel under one parent) are counted once.
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// PerRequest sums, for every request, the self time of its spans
// named name. Requests with no such span are absent.
func PerRequest(spans []Span, self map[int64]time.Duration, name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Req] += self[s.ID]
		}
	}
	return out
}

// LayerSum returns, for every request with a root span named root, the
// summed self time of the spans below that root — the time the request
// spent inside the layers the root's children stand for.
func LayerSum(spans []Span, self map[int64]time.Duration, root string) map[int]time.Duration {
	byID := make(map[int64]Span, len(spans))
	out := map[int]time.Duration{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 && s.Name == root {
			out[s.Req] += 0
		}
	}
	for _, s := range spans {
		for p := s.Parent; p != 0; {
			anc := byID[p]
			if anc.Parent == 0 {
				if anc.Name == root {
					out[anc.Req] += self[s.ID]
				}
				break
			}
			p = anc.Parent
		}
	}
	return out
}

// Residuals returns, for every request present in both maps, the
// outer time minus the time the layers account for. It is reported,
// not hidden: a large residual means work no layer span covers.
func Residuals(outer, layers map[int]time.Duration) []time.Duration {
	ids := make([]int, 0, len(outer))
	for id := range outer {
		if _, ok := layers[id]; ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	out := make([]time.Duration, len(ids))
	for i, id := range ids {
		out[i] = outer[id] - layers[id]
	}
	return out
}
