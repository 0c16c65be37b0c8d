package main

// Spans for the traced run. The benchmark times its own calls into each
// layer's public functions; nothing inside the program is instrumented.
// A request or maintenance cycle is one tree of spans: a root span plus
// one span per call, each naming the layer.metric it feeds. A span's self
// time is its duration minus the part of it that its child spans cover.

import (
	"sort"
	"sync"
	"time"
)

type spanRec struct {
	name       string
	start, end time.Duration // from the tracer's start
	parent     int           // index of the parent span, -1 for the root
}

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	trees []*spanTree
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanTree is the spans of one request (kind = its op kind) or one
// maintenance cycle (kind = "cycle").
type spanTree struct {
	tr   *tracer
	kind string

	mu    sync.Mutex // router scatter goroutines open spans concurrently
	spans []spanRec
}

func (t *tracer) begin(kind string) *spanTree {
	st := &spanTree{tr: t, kind: kind}
	st.open("root", -1)
	return st
}

func (st *spanTree) open(name string, parent int) int {
	now := time.Since(st.tr.t0)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.spans = append(st.spans, spanRec{name: name, start: now, end: -1, parent: parent})
	return len(st.spans) - 1
}

func (st *spanTree) close(i int) {
	now := time.Since(st.tr.t0)
	st.mu.Lock()
	st.spans[i].end = now
	st.mu.Unlock()
}

// span times fn as a child of the root.
func (st *spanTree) span(name string, fn func()) {
	i := st.open(name, 0)
	fn()
	st.close(i)
}

// finish closes the root and hands the tree to the tracer. Trees whose
// kind was never set (a request that failed before routing) are dropped.
func (st *spanTree) finish() {
	st.close(0)
	if st.kind == "" {
		return
	}
	st.tr.mu.Lock()
	st.tr.trees = append(st.tr.trees, st)
	st.tr.mu.Unlock()
}

// selfTimes returns each span's self time.
func (st *spanTree) selfTimes() []time.Duration {
	out := make([]time.Duration, len(st.spans))
	for i, s := range st.spans {
		var kids [][2]time.Duration
		for _, c := range st.spans {
			if c.parent == i {
				kids = append(kids, [2]time.Duration{max(c.start, s.start), min(c.end, s.end)})
			}
		}
		out[i] = s.end - s.start - unionLen(kids)
	}
	return out
}

func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE time.Duration
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// traceSummary aggregates the trees of a traced phase.
type traceSummary struct {
	self     map[string][]float64 // span name → self times, µs
	dur      map[string][]float64 // span name → durations, µs
	rootUs   map[string][]float64 // tree kind → root durations, µs
	coverage map[string]float64   // tree kind → share of root time layers' self time covers
}

func (t *tracer) summarize() *traceSummary {
	s := &traceSummary{self: map[string][]float64{}, dur: map[string][]float64{},
		rootUs: map[string][]float64{}, coverage: map[string]float64{}}
	root, covered := map[string]float64{}, map[string]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.trees {
		self := st.selfTimes()
		for i, sp := range st.spans {
			us := float64(self[i]) / 1e3
			d := float64(sp.end-sp.start) / 1e3
			if i == 0 {
				s.rootUs[st.kind] = append(s.rootUs[st.kind], d)
				root[st.kind] += d
				covered[st.kind] += d - us
				continue
			}
			s.self[sp.name] = append(s.self[sp.name], us)
			s.dur[sp.name] = append(s.dur[sp.name], d)
		}
	}
	for k, r := range root {
		if r > 0 {
			s.coverage[k] = covered[k] / r
		}
	}
	return s
}
