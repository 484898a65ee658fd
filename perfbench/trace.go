package main

import (
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one op share Op; set-up and check spans carry Op = -1. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, so untraced
// ops pass nil and pay only a nil check. A tracer is not safe for
// concurrent use: concurrent clients each own one and merge them at exit.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 4096)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(layer, name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
}

// merge renumbers the spans of several tracers into one list.
func merge(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		if t == nil {
			continue
		}
		base := int32(len(out))
		for _, s := range t.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers. Spans
// must be indexed by ID (as merge and tracer produce them).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{spans[c].Start, spans[c].End})
		}
		out[i] = (s.End - s.Start) - coveredNS(ivs, s.Start, s.End)
	}
	return out
}

// coveredNS is the length of the union of the intervals, clipped to
// [lo, hi].
func coveredNS(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// addSelfTimes reports, for every layer seen inside ops, its mean self time
// per traced op as trace.<layer>_self_ms.
func addSelfTimes(layers map[string]metric, spans []span) {
	self := selfTimes(spans)
	ops := map[int64]bool{}
	sum := map[string]int64{}
	for i, s := range spans {
		if s.Op < 0 {
			continue
		}
		ops[s.Op] = true
		sum[s.Layer] += self[i]
	}
	for layer, ns := range sum {
		layers["trace."+layer+"_self_ms"] = metric{float64(ns) / 1e6 / float64(len(ops)), "ms"}
	}
}

// overheadPct is the tracing overhead: traced ÷ untraced median op
// latency, minus 1, in percent.
func overheadPct(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced)/u - 1) * 100
}

// spanMS returns the durations, in milliseconds, of the op spans of a
// layer.
func spanMS(spans []span, layer string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Op >= 0 && s.Layer == layer {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
