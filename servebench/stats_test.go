package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) sample {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return newSample(xs)
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{100, 0.50, 50, true},
		{100, 0.99, 99, false},  // one sample beyond
		{1000, 0.99, 990, true}, // exactly ten beyond
		{999, 0.99, 990, false}, // nine beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	} {
		got, ok := seq(c.n).percentile(c.p)
		if got != c.want || ok != c.report {
			t.Errorf("n=%d p=%v: got %v reportable=%v, want %v %v", c.n, c.p, got, ok, c.want, c.report)
		}
	}
	if _, ok := sample(nil).percentile(0.5); ok {
		t.Error("empty sample reported a percentile")
	}
}

func TestAddLatency(t *testing.T) {
	ds := make([]time.Duration, 999)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	var r result
	if err := addLatency(&r, "read", ds); err != nil || len(r.metrics) != 1 || r.metrics[0].name != "read_p50_ms" {
		t.Fatalf("999 samples: err %v, metrics %+v; want the median alone", err, r.metrics)
	}
	ds = append(ds, time.Second)
	r = result{}
	if err := addLatency(&r, "read", ds); err != nil || len(r.metrics) != 2 {
		t.Fatalf("1000 samples: err %v, metrics %+v", err, r.metrics)
	}
	if p99 := r.metrics[1]; p99.name != "read_p99_ms" || p99.value != 990 || p99.n != 1000 {
		t.Errorf("p99 = %+v, want 990 ms over 1000 samples", p99)
	}
	if err := addLatency(&r, "read", ds[:19]); err == nil {
		t.Error("a median over 19 samples was reported")
	}
}

func TestWindowedP99(t *testing.T) {
	// Three windows of 1000 and a remainder the last one absorbs; the
	// middle window holds a stall that reaches past its p99.
	ds := make([]time.Duration, 3500)
	for i := range ds {
		ds[i] = time.Duration(1+i%1000) * time.Millisecond
	}
	for i := 1000; i < 1100; i++ {
		ds[i] = time.Minute
	}
	got, ok := windowedP99(ds)
	if !ok || got != 990 {
		t.Errorf("windowed p99 = %v (ok %v), want 990: the stalled window must not set it", got, ok)
	}
	if _, ok := windowedP99(ds[:999]); ok {
		t.Error("p99 reported from 999 samples")
	}
}

func sp(req, name, parent string, start, end int64) span {
	return span{Req: req, Name: name, Parent: parent, Start: start * 1000, End: end * 1000, CPU: (end - start) * 500}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Request a, two repetitions: the fastest of each layer counts.
		sp("a", "topk", "discover", 0, 10),
		sp("a", "discover", "engine", 10, 40),
		sp("a", "organize", "engine", 40, 50),
		sp("a", "engine", "", 50, 150),
		sp("a", "topk", "discover", 200, 208),
		sp("a", "discover", "engine", 210, 245),
		sp("a", "organize", "engine", 250, 262),
		sp("a", "engine", "", 300, 395),
		// Request b, one repetition, no organize span.
		sp("b", "topk", "discover", 0, 5),
		sp("b", "discover", "engine", 5, 25),
		sp("b", "engine", "", 25, 85),
	}
	want := map[string][]float64{
		"topk":     {5, 8},
		"discover": {20 - 5, 30 - 8},
		"organize": {10},
		"engine":   {60 - 20, 95 - 30 - 10},
	}
	for name, w := range want {
		for _, c := range []struct {
			clock clock
			scale float64
		}{{wall, 1}, {cpu, 0.5}} {
			got, err := selfTimes(spans, name, c.clock)
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			ws := make([]float64, len(w))
			for i := range w {
				ws[i] = w[i] * c.scale
			}
			ws = newSample(ws)
			if len(got) != len(ws) {
				t.Errorf("%s: self times %v, want %v", name, got, ws)
				continue
			}
			for i := range ws {
				if got[i] != ws[i] {
					t.Errorf("%s: self times %v, want %v", name, got, ws)
					break
				}
			}
		}
	}
	if d := spanDurations(spans, "engine", wall); d.median() != 60 || len(d) != 2 {
		t.Errorf("engine durations %v, want the fastest per request, [60 95]", d)
	}
	// A child slower than its parent leaves a negative self time: an error.
	bad := append(spans,
		sp("c", "topk", "discover", 0, 30),
		sp("c", "discover", "engine", 30, 50))
	got, err := selfTimes(bad, "discover", wall)
	if err == nil || !strings.Contains(err.Error(), "request c") {
		t.Errorf("negative self time of request c not reported: self times %v, err %v", got, err)
	}
	if len(got) != 3 || got[0] != -10 {
		t.Errorf("self times %v, want [-10 15 22]", got)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP ss_cache_hits_total result-cache hits
# TYPE ss_cache_hits_total counter
ss_cache_hits_total 7
ss_http_requests_total{handler="search",code="200"} 5
ss_http_requests_total{handler="apply",code="200"} 2
ss_wal_fsync_seconds_bucket{le="0.001"} 3
ss_wal_fsync_seconds_sum 0.0125
ss_wal_fsync_seconds_count 4
`
	out := map[string]float64{"ss_cache_hits_total": 1}
	if err := parseMetrics(strings.NewReader(text), out); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"ss_cache_hits_total":        8,
		"ss_http_requests_total":     7,
		"ss_wal_fsync_seconds_sum":   0.0125,
		"ss_wal_fsync_seconds_count": 4,
	}
	if len(out) != len(want) {
		t.Errorf("parsed %v, want %v", out, want)
	}
	for k, v := range want {
		if out[k] != v {
			t.Errorf("%s = %v, want %v", k, out[k], v)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which tools that run
// the benchmark read, in step with the metrics and workloads defined here.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
