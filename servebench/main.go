// Command servebench is SocialScope's serving benchmark. It runs one
// workload against a real serve.Server over loopback TCP, in this
// process, and checks every answer.
//
// Each run sets the deployment up, then measures a closed-loop phase
// with two clients for a quarter of --seconds and an open-loop phase at
// the workload's fixed rate for the rest. With --trace 0 it reports the
// end-to-end metrics. With --trace 1 it runs the same measurement, then
// once more on a fresh deployment with X-SS-Trace on every request, then
// replays a sample of the workload's requests layer by layer, and
// reports the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash servebench/run.sh --workload explore_cold --seed 1 --seconds 32 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workDir holds the engines' durable directories while a run lasts, and
// the traced run's spans and annexes after it, relative to the working
// directory.
const workDir = ".bench_out"

// setupReps is how many times an untraced run sets its deployment up;
// setup_s is the median.
const setupReps = 5

func main() {
	name := flag.String("workload", "", "workload: explore_cold, hot_routed or ingest_churn")
	seed := flag.Int64("seed", 1, "seed of the generated corpus and requests")
	seconds := flag.Int("seconds", 32, "measured seconds per run (at least 4)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run and layer replay")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 4 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need --seconds >= 4 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("servebench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	res, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	if len(res.wrong) > 0 {
		os.Exit(1)
	}
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics reported with --trace 0 and gated by
// BENCHMARK.json: what the system costs its operator per request, at
// start-up and in memory. They are CPU time and heap, not wall time:
// on the shared 2-core host wall-clock figures (throughput, latency,
// set-up) moved by 17–50% between two sets of ten runs half an hour
// apart, fsync-bound ones most, beyond the widest bound a metric may
// have. The wall-clock figures are printed beside them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"mem_mb", "MB"},
}

// perLayer are the metrics of single layers, reported with --trace 1.
var perLayer = []metricDef{
	{"topk.query_us", "us"},
	{"topk.postings_per_query", "count"},
	{"topk.rescores_per_query", "count"},
	{"topk.early_frac", "ratio"},
	{"topk.exhaustive_query_us", "us"},
	{"topk.exhaustive_postings_per_query", "count"},
	{"discovery.self_us", "us"},
	{"discovery.results_per_query", "count"},
	{"presentation.organize_us", "us"},
	{"presentation.explain_us", "us"},
	{"presentation.related_us", "us"},
	{"presentation.allocs_per_query", "count"},
	{"engine.self_us", "us"},
	{"engine.allocs_per_query", "count"},
	{"engine.apply_ms", "ms"},
	{"graph.apply_us", "us"},
	{"index.apply_delta_us", "us"},
	{"wal.fsync_p50_us", "us"},
	{"wal.bytes_per_mutation", "B"},
	{"store.checkpoint_ms", "ms"},
	{"store.checkpoint_kb", "kB"},
	{"store.recover_ms", "ms"},
	{"serve.hit_us", "us"},
	{"serve.miss_self_us", "us"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.cache_shared_frac", "ratio"},
	{"serve.flush_mutations", "count"},
	{"serve.rejected", "count"},
	{"http.self_us", "us"},
	{"route.self_us", "us"},
	{"route.retries", "count"},
	{"route.hedges", "count"},
	{"runtime.alloc_kb_per_op", "kB"},
	{"runtime.gc_per_kop", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	metricDef
	value float64
	n     int
}

// result is what a run reports. wanted lists the metrics of the JSON
// line; others (wall-clock figures, error_frac, the untraced end-to-end
// figures of a traced run) are printed for people only.
type result struct {
	wanted    []metricDef
	metrics   []metric
	attempted int
	failed    int
	wrong     []string // wrong answers and durability violations
}

func (r *result) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{metricDef{name, unit}, v, n})
}

func (r *result) count(p phase) {
	r.attempted += p.attempted
	r.failed += p.failed
}

func (r *result) violation(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// print writes one line per metric, then the JSON result line.
func (r *result) print(out io.Writer) error {
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-36s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, w := range r.wrong {
		fmt.Fprintf(out, "VIOLATION: %s\n", w)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	got := make(map[string]metric)
	for _, m := range r.metrics {
		got[m.name] = m
	}
	vals := make(map[string]value, len(r.wanted))
	for _, d := range r.wanted {
		m, ok := got[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		vals[d.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.wrong) == 0, r.attempted, r.failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// measurement is one run's two load phases and the counters the program
// exposed over them. The phases keep their counts and totals only: their
// per-op samples are reduced to the latency figures before the heap is
// read, so the heap does not grow with the ops the benchmark recorded.
type measurement struct {
	closed, open phase
	latency      []metric           // the open loop's latency and lag percentiles
	counters     map[string]float64 // /metrics deltas over both phases
	heapMB       float64            // live heap after a forced GC
}

// readP50 is the open loop's read_p50_ms.
func (m measurement) readP50() metric {
	for _, x := range m.latency {
		if x.name == "read_p50_ms" {
			return x
		}
	}
	panic("servebench: measurement without read_p50_ms")
}

// rounds is how many slices each phase is cut into. The phases
// alternate, a slice of each per round, so both spread over the whole
// run: the host's speed drifts over tens of seconds, and a phase
// measured in one block would sample one stretch of it.
const rounds = 8

// measure runs the closed-loop phase for a quarter of d and the open-loop
// phase for the rest, in alternating slices, continuing the op stream
// where the previous slice stopped.
func measure(s *system, d time.Duration) (measurement, error) {
	var m measurement
	before, err := s.counters()
	if err != nil {
		return m, err
	}
	next := 0
	from := func(offset int) opFunc {
		return func(i int) (bool, error) { return s.do(offset + i) }
	}
	lanes, laneOf := []int{clients}, func(int) int { return 0 }
	if s.writes {
		// Reads and writes each get a connection, so a read never waits
		// for a connection held by a write's fsync.
		lanes = []int{1, 1}
		laneOf = func(i int) int {
			if s.ops[(next+i)%len(s.ops)].write {
				return 1
			}
			return 0
		}
	}
	for r := 0; r < rounds; r++ {
		c := closedLoop(clients, d/4/rounds, from(next))
		next += c.attempted
		m.closed.add(c)
		o := openLoop(lanes, (d-d/4)/rounds, s.w.rate, laneOf, from(next))
		next += o.attempted
		m.open.add(o)
	}
	if m.latency, err = latencyMetrics(m.open); err != nil {
		return m, err
	}
	m.closed.dropSamples()
	m.open.dropSamples()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / 1e6
	after, err := s.counters()
	if err != nil {
		return m, err
	}
	m.counters = make(map[string]float64, len(after))
	for k, v := range after {
		m.counters[k] = v - before[k]
	}
	for _, p := range []phase{m.closed, m.open} {
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "servebench: %d of %d ops failed, first: %v\n", p.failed, p.attempted, p.firstErr)
		}
	}
	return m, nil
}

// reportEndToEnd adds the end-to-end metrics of an untraced measurement.
func reportEndToEnd(r *result, m measurement, setupCPU, setupWall sample) error {
	done := m.closed.completed()
	if done == 0 {
		return fmt.Errorf("closed-loop phase completed no op")
	}
	r.add("setup_s", "s", setupCPU.median(), len(setupCPU))
	r.add("setup_wall_s", "s", setupWall.median(), len(setupWall))
	r.add("throughput_rps", "ops/s", float64(done)/m.closed.elapsed.Seconds(), done)
	r.add("cpu_ms_per_op", "ms", float64(m.closed.cpu)/float64(time.Millisecond)/float64(done), done)
	r.metrics = append(r.metrics, m.latency...)
	r.add("mem_mb", "MB", m.heapMB, 1)
	attempted := m.closed.attempted + m.open.attempted
	r.add("error_frac", "ratio", float64(m.closed.failed+m.open.failed)/float64(attempted), attempted)
	return nil
}

// latencyMetrics reduces an open-loop phase's samples to read_p50_ms,
// read_p99_ms, the same for writes when there were any, and
// loadgen.lag_p99_ms.
func latencyMetrics(p phase) ([]metric, error) {
	var r result
	if err := addLatency(&r, "read", p.reads); err != nil {
		return nil, err
	}
	if len(p.writes) > 0 {
		if err := addLatency(&r, "write", p.writes); err != nil {
			return nil, err
		}
	}
	lags := durationsMs(p.lags)
	if lag, ok := lags.percentile(0.99); ok {
		r.add("loadgen.lag_p99_ms", "ms", lag, len(lags))
	}
	return r.metrics, nil
}

// addLatency adds <kind>_p50_ms and, when at least p99Window samples
// allow it, <kind>_p99_ms (see windowedP99) of latencies listed in due
// order. Too few samples for a median is an error.
func addLatency(r *result, kind string, ds []time.Duration) error {
	p50, ok := durationsMs(ds).percentile(0.50)
	if !ok {
		return fmt.Errorf("%s p50 needs %d samples beyond it, have %d samples", kind, minTail, len(ds))
	}
	r.add(kind+"_p50_ms", "ms", p50, len(ds))
	if p99, ok := windowedP99(ds); ok {
		r.add(kind+"_p99_ms", "ms", p99, len(ds))
	}
	return nil
}

// execute runs the workload once and returns what it measured.
func execute(w *workloadDef, seed int64, d time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	r := &result{wanted: endToEnd}
	if traced {
		r.wanted = perLayer
	}
	reps := setupReps
	if traced {
		reps = 1
	}
	var s *system
	var setupCPU, setupWall []float64
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = startSystem(w, seed, workDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, s.setupCPU.Seconds())
		setupWall = append(setupWall, s.setupWall.Seconds())
	}
	m, err := measure(s, d)
	if err != nil {
		s.close()
		return nil, err
	}
	r.count(m.closed)
	r.count(m.open)
	if err := reportEndToEnd(r, m, newSample(setupCPU), newSample(setupWall)); err != nil {
		s.close()
		return nil, err
	}
	if !traced {
		defer s.close()
		if err := check(r, s, seed); err != nil {
			return nil, err
		}
		return r, nil
	}
	s.close()
	if err := traceRun(r, w, seed, d, m); err != nil {
		return nil, err
	}
	return r, nil
}

// check runs the correctness gate and then the durability check, which
// shuts the deployment down.
func check(r *result, s *system, seed int64) error {
	checked, wrong, err := s.checkAnswers(seed + 3)
	if err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	r.attempted += checked
	r.failed += len(wrong)
	for _, msg := range wrong {
		r.violation("%s", msg)
	}
	took, err := s.recover()
	if err != nil {
		r.violation("durability: %v", err)
		return nil
	}
	r.add("store.recover_ms", "ms", float64(took)/float64(time.Millisecond), 1)
	return nil
}

// traceRun repeats the measurement on a fresh deployment with tracing on,
// replays the workload layer by layer, and adds the per-layer metrics.
// base is the untraced measurement of the same seed and length.
func traceRun(r *result, w *workloadDef, seed int64, d time.Duration, base measurement) error {
	s, err := startSystem(w, seed, workDir)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	s.trace = true
	m, err := measure(s, d)
	if err != nil {
		return err
	}
	s.trace = false
	r.count(m.closed)
	r.count(m.open)
	t := &tracer{t0: time.Now()}
	st, err := replay(s, seed, workDir, t)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := check(r, s, seed); err != nil {
		return err
	}
	if err := writeTrace(w, seed, t.spans, s.annexes); err != nil {
		return err
	}
	traced := m.readP50()
	r.add("trace.overhead_pct", "%", 100*(traced.value/base.readP50().value-1), traced.n)
	reportLayers(r, base, t.spans, st)
	return nil
}

// writeTrace writes the replay's spans and the traced run's annexes as
// JSON lines under workDir.
func writeTrace(w *workloadDef, seed int64, spans []span, annexes []string) error {
	path := filepath.Join(workDir, fmt.Sprintf("%s-seed%d.trace.jsonl", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, a := range annexes {
		if err := enc.Encode(struct {
			Annex string `json:"annex"`
		}{a}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// reportLayers adds the per-layer metrics: counters and runtime figures
// of the untraced measurement, and the replay's spans and counts. Layers
// that run on the replay's own thread are timed in its CPU time; the
// HTTP hops, whose work runs on server goroutines, and the write calls
// that wait on the disk in wall time.
func reportLayers(r *result, m measurement, spans []span, st replayStats) {
	dur := func(metric, layer string, c clock, scale float64) {
		s := spanDurations(spans, layer, c)
		r.add(metric, unitOf(metric), s.median()*scale, len(s))
	}
	self := func(metric, layer string, c clock) {
		s, err := selfTimes(spans, layer, c)
		if err != nil {
			r.violation("trace: %v", err)
		}
		r.add(metric, unitOf(metric), s.median(), len(s))
	}
	perRead := func(n int) float64 { return float64(n) / float64(max(st.reads, 1)) }
	allocs := func(layers ...string) float64 {
		var total uint64
		byReq := fastest(spans, cpu)
		for _, byName := range byReq {
			for _, l := range layers {
				total += byName[l].Allocs
			}
		}
		return float64(total) / float64(max(len(byReq), 1))
	}

	dur("topk.query_us", "topk.query", cpu, 1)
	r.add("topk.postings_per_query", "count", perRead(st.taPostings), st.reads)
	r.add("topk.rescores_per_query", "count", perRead(st.taRescores), st.reads)
	r.add("topk.early_frac", "ratio", perRead(st.taEarly), st.reads)
	dur("topk.exhaustive_query_us", "topk.exhaustive", cpu, 1)
	r.add("topk.exhaustive_postings_per_query", "count", perRead(st.exPostings), st.reads)
	self("discovery.self_us", "discovery.discover", cpu)
	r.add("discovery.results_per_query", "count", perRead(st.results), st.reads)

	dur("presentation.organize_us", "presentation.organize", cpu, 1)
	dur("presentation.explain_us", "presentation.explain", cpu, 1)
	dur("presentation.related_us", "presentation.related", cpu, 1)
	r.add("presentation.allocs_per_query", "count",
		allocs("presentation.organize", "presentation.explain", "presentation.related"), st.reads)
	dur("engine.self_us", "engine.query", unstaged, 1)
	r.add("engine.allocs_per_query", "count", allocs("engine.query"), st.reads)

	dur("engine.apply_ms", "engine.apply", wall, 1e-3)
	dur("graph.apply_us", "graph.apply", cpu, 1)
	dur("index.apply_delta_us", "index.apply_delta", cpu, 1)
	dur("wal.fsync_p50_us", "wal.append", wall, 1)
	r.add("wal.bytes_per_mutation", "B", st.walBytes/float64(max(st.mutations, 1)), st.mutations)
	dur("store.checkpoint_ms", "store.checkpoint", wall, 1e-3)
	r.add("store.checkpoint_kb", "kB", st.ckptBytes/1024/max(st.ckpts, 1), int(st.ckpts))

	dur("serve.hit_us", "serve.hit", cpu, 1)
	self("serve.miss_self_us", "serve.miss", unstaged)
	c := m.counters
	lookups := c["ss_cache_hits_total"] + c["ss_cache_misses_total"] + c["ss_cache_shared_total"]
	r.add("serve.cache_hit_frac", "ratio", c["ss_cache_hits_total"]/max(lookups, 1), int(lookups))
	r.add("serve.cache_shared_frac", "ratio", c["ss_cache_shared_total"]/max(lookups, 1), int(lookups))
	flushes := c["ss_coalescer_flushes_total"]
	r.add("serve.flush_mutations", "count", c["ss_coalescer_mutations_total"]/max(flushes, 1), int(flushes))
	r.add("serve.rejected", "count", c["ss_limiter_rejected_total"], 1)
	self("http.self_us", "http.get", wall)
	self("route.self_us", "route.get", wall)
	r.add("route.retries", "count", c["ss_route_retries_total"], 1)
	r.add("route.hedges", "count", c["ss_route_hedges_total"], 1)

	done := m.closed.completed()
	r.add("runtime.alloc_kb_per_op", "kB", float64(m.closed.allocBytes)/1024/float64(max(done, 1)), done)
	r.add("runtime.gc_per_kop", "count", 1000*float64(m.closed.gcs)/float64(max(done, 1)), done)
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	panic("servebench: unknown per-layer metric " + name)
}
