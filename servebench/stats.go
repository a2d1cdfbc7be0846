package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over fewer than 1000 samples rests on a handful of
// outliers and does not repeat.
const minTail = 10

// sample is a sorted set of measurements in one unit.
type sample []float64

func newSample(xs []float64) sample {
	s := append(sample(nil), xs...)
	sort.Float64s(s)
	return s
}

func durationsMs(ds []time.Duration) sample {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return newSample(xs)
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) and whether
// it may be reported: at least minTail samples lie beyond it.
func (s sample) percentile(p float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	// The epsilon keeps p*n from rounding up past an exact integer rank
	// (0.99*1000 must be rank 990, not 991).
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minTail
}

// p99Window is the sample count of one p99 window: the fewest samples
// with minTail beyond the 99th percentile.
const p99Window = 100 * minTail

// windowedP99 splits samples, in the order they were due, into windows of
// p99Window (the last one absorbing the remainder) and returns the
// median of the windows' p99s in ms: a stall of the shared host then
// moves one window of a long run, not the figure. ok is false with fewer
// than p99Window samples.
func windowedP99(ds []time.Duration) (float64, bool) {
	k := len(ds) / p99Window
	if k == 0 {
		return 0, false
	}
	p99s := make([]float64, k)
	for w := range p99s {
		end := (w + 1) * p99Window
		if w == k-1 {
			end = len(ds)
		}
		p99s[w], _ = durationsMs(ds[w*p99Window : end]).percentile(0.99)
	}
	return newSample(p99s).median(), true
}

// median is the nearest-rank median without the tail rule, for the small
// samples (a few repetitions of set-up, a replay sample) it summarizes.
func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	v, _ := s.percentile(0.5)
	return v
}

// span is one timed call into a layer during the traced replay. Spans of
// one request share Req; Parent names the layer whose call contains this
// one, so a layer's self time is its span minus its children's.
type span struct {
	Req    string `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"` // CPU time of the calling thread
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	// Stages are the stage times, in ns, that the program's own span
	// reported for this call.
	Stages map[string]int64 `json:"stages_ns,omitempty"`
}

// clock measures a span: wall suits calls whose work runs on other
// goroutines or waits on a disk, cpu calls that run on the calling
// thread alone, unstaged calls the program itself splits into stages.
type clock func(span) time.Duration

func wall(s span) time.Duration { return time.Duration(s.End - s.Start) }
func cpu(s span) time.Duration  { return time.Duration(s.CPU) }

// unstaged is the wall time of a call outside the stages the program
// timed inside it.
func unstaged(s span) time.Duration {
	d := wall(s)
	for _, ns := range s.Stages {
		d -= time.Duration(ns)
	}
	return d
}

// fastest returns, per request, the shortest span of each name. A
// request replays every layer several times; the fastest repetition is
// the one least disturbed by GC and scheduling, so it stands for the
// layer's cost.
func fastest(spans []span, c clock) map[string]map[string]span {
	out := make(map[string]map[string]span)
	for _, s := range spans {
		byName := out[s.Req]
		if byName == nil {
			byName = make(map[string]span)
			out[s.Req] = byName
		}
		if cur, ok := byName[s.Name]; !ok || c(s) < c(cur) {
			byName[s.Name] = s
		}
	}
	return out
}

// selfTimes returns the named layer's self time per request, in µs: its
// fastest span minus the fastest spans of the layers that name it as
// parent in the same request. A negative self time means the layers were
// not measured apart, and is an error naming the request.
func selfTimes(spans []span, name string, c clock) (sample, error) {
	children := make(map[string]bool)
	for _, s := range spans {
		if s.Parent == name {
			children[s.Name] = true
		}
	}
	var xs []float64
	var err error
	for req, byName := range fastest(spans, c) {
		s, ok := byName[name]
		if !ok {
			continue
		}
		self := c(s)
		for child := range children {
			self -= c(byName[child])
		}
		if self < 0 && err == nil {
			err = fmt.Errorf("%s of request %s: self time %v below 0", name, req, self)
		}
		xs = append(xs, float64(self)/float64(time.Microsecond))
	}
	return newSample(xs), err
}

// spanDurations returns the fastest span of the named layer per request,
// in µs.
func spanDurations(spans []span, name string, c clock) sample {
	var xs []float64
	for _, byName := range fastest(spans, c) {
		if s, ok := byName[name]; ok {
			xs = append(xs, float64(c(s))/float64(time.Microsecond))
		}
	}
	return newSample(xs)
}
