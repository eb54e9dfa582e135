package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer, or one callback a
// layer made up into benchmark code. Spans inside the program under test
// are a later issue; these are recorded from outside, in memory, and
// written when the process ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root of its trace
	Trace  int    `json:"trace"`  // shared by all spans of one repeat
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the duration minus the part its direct children cover.
	Self int64 `json:"self_ns"`
}

// tracer records spans on one goroutine. A nil tracer records nothing, so
// untraced repeats pay one nil check per call site.
type tracer struct {
	t0    time.Time
	trace int
	base  int // id offset, distinct per goroutine
	root  int // parent id of this tracer's outermost spans
	spans []span
	stack []int
	kids  []*tracer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return 0
	}
	parent := t.root
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		ID: t.base + i + 1, Parent: parent, Trace: t.trace,
		Name: name, Layer: layer, Start: time.Since(t.t0).Nanoseconds(),
	})
	t.stack = append(t.stack, i)
	return i
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// fork returns a tracer for another goroutine whose outermost spans hang
// under the span that is open here now. Forks are made before the
// goroutine starts and read after it is joined.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	k := &tracer{t0: t.t0, trace: t.trace, base: (len(t.kids) + 1) << 24}
	if n := len(t.stack); n > 0 {
		k.root = t.spans[t.stack[n-1]].ID
	}
	t.kids = append(t.kids, k)
	return k
}

// all returns this tracer's spans and its forks', self times filled in:
// a span's duration minus the part of that interval its direct children
// cover (children on other goroutines overlap, so the cover is a union).
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	out := append([]span(nil), t.spans...)
	for _, k := range t.kids {
		out = append(out, k.spans...)
	}
	kids := make(map[int][]int, len(out))
	for i, s := range out {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	for i := range out {
		ch := kids[out[i].ID]
		sort.Slice(ch, func(a, b int) bool { return out[ch[a]].Start < out[ch[b]].Start })
		var covered, upTo int64
		for _, c := range ch {
			from, to := out[c].Start, out[c].End
			if from < upTo {
				from = upTo
			}
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		out[i].Self = out[i].End - out[i].Start - covered
	}
	return out
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]int64 {
	m := map[string]int64{}
	for _, s := range spans {
		m[s.Layer] += s.Self
	}
	return m
}

// traceFile is the on-disk form of one workload's traced window.
type traceFile struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	LayerSelfNs map[string]int64 `json:"layer_self_ns"`
	Spans       []span           `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, LayerSelfNs: layerSelf(spans), Spans: spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
