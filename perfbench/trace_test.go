package main

import (
	"reflect"
	"testing"
	"time"
)

const msec = time.Millisecond

// A request replayed under a root span, with overlapping siblings, a
// nested layer, and an unrelated root of the same request that must
// not count as a layer of the replay.
var syntheticSpans = []Span{
	{ID: 1, Req: 7, Name: "replay", Start: 0, End: 100 * msec},
	{ID: 2, Parent: 1, Req: 7, Name: "lang.parse", Start: 10 * msec, End: 40 * msec},
	{ID: 3, Parent: 1, Req: 7, Name: "delta.compile", Start: 30 * msec, End: 90 * msec},
	{ID: 4, Parent: 3, Req: 7, Name: "cover.cover", Start: 50 * msec, End: 70 * msec},
	{ID: 5, Parent: 3, Req: 7, Name: "cover.cover", Start: 80 * msec, End: 90 * msec},
	{ID: 6, Req: 7, Name: "client", Start: 0, End: 130 * msec},
	{ID: 7, Parent: 6, Req: 7, Name: "server.handler", Start: 5 * msec, End: 125 * msec},
}

func TestSelfTimes(t *testing.T) {
	got := SelfTimes(syntheticSpans)
	want := map[int64]time.Duration{
		1: 20 * msec, // children cover [10,90]; the 10ms overlap counts once
		2: 30 * msec,
		3: 30 * msec, // 60 minus 20 and 10 of nested covering
		4: 20 * msec,
		5: 10 * msec,
		6: 10 * msec,
		7: 120 * msec,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "p", Start: 0, End: 10 * msec},
		{ID: 2, Parent: 1, Name: "c", Start: 5 * msec, End: 20 * msec},
	}
	if got := SelfTimes(spans)[1]; got != 5*msec {
		t.Fatalf("parent self time = %v, want 5ms", got)
	}
}

func TestPerRequestAndResidual(t *testing.T) {
	self := SelfTimes(syntheticSpans)
	if got := PerRequest(syntheticSpans, self, "cover.cover"); !reflect.DeepEqual(got, map[int]time.Duration{7: 30 * msec}) {
		t.Fatalf("PerRequest(cover.cover) = %v, want 30ms for request 7", got)
	}
	layers := LayerSum(syntheticSpans, self, "replay")
	// parse 30 + delta 30 + cover 20 + 10; the client/handler tree is not
	// below the replay root.
	if want := map[int]time.Duration{7: 90 * msec}; !reflect.DeepEqual(layers, want) {
		t.Fatalf("LayerSum = %v, want %v", layers, want)
	}
	handler := PerRequest(syntheticSpans, self, "server.handler")
	handler[8] = 50 * msec // a request with no replay is left out
	if got, want := Residuals(handler, layers), []time.Duration{30 * msec}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Residuals = %v, want %v", got, want)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := NewTracer(time.Now())
	root := tr.Begin("replay", 3, 0)
	child := tr.Begin("lang.parse", 3, root)
	tr.End(child)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != 3 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Start > spans[1].Start || spans[1].End > spans[0].End {
		t.Fatalf("child %+v not inside root %+v", spans[1], spans[0])
	}
	var nilTracer *Tracer
	if id := nilTracer.Begin("x", 1, 0); id != 0 || nilTracer.Spans() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
	nilTracer.End(0)
}
