package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"socialscope/internal/cluster"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/obs"
	"socialscope/internal/presentation"
	"socialscope/internal/serve"
	"socialscope/internal/topk"
	"socialscope/internal/vfs"
	"socialscope/internal/wal"
)

// Replay sizes: distinct reads replayed, repetitions of each read's
// layer calls (the fastest stands for the layer), repetitions of its
// cache-hit hops, timed write batches, and timed batches between
// explicit checkpoints. The hops are timed in wall time, which the
// shared host disturbs most, and cost well under a millisecond, so they
// repeat more: with three repetitions the host's noise could make a
// routed GET faster than every direct one, a negative route.self_us.
const (
	replayReads   = 16
	replayReps    = 3
	hopReps       = 20
	replayBatches = 32
	ckptEvery     = 8
)

// tracer records spans around calls made from benchmark code. Spans stay
// in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

// call times fn as one span: wall time, the calling thread's CPU time,
// and the heap allocations made meanwhile. The replay runs on one locked
// thread, so thread CPU time is the call's own work on it, without the
// time the shared host took the thread away.
func (t *tracer) call(req, name, parent string, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := threadCPU()
	start := time.Now()
	err := fn()
	end := time.Now()
	cpu1 := threadCPU()
	runtime.ReadMemStats(&m1)
	t.spans = append(t.spans, span{
		Req: req, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), CPU: int64(cpu1 - cpu0),
		Allocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc,
	})
	if err != nil {
		return fmt.Errorf("%s %s: %w", req, name, err)
	}
	return nil
}

// stages attaches the stage times of a span annex (the fields ending in
// _ms, but for total_ms) to the last span recorded.
func (t *tracer) stages(annex string) error {
	var fields map[string]any
	if err := json.Unmarshal([]byte(annex), &fields); err != nil {
		return fmt.Errorf("trace annex %q: %w", annex, err)
	}
	last := &t.spans[len(t.spans)-1]
	last.Stages = make(map[string]int64)
	for k, v := range fields {
		ms, ok := v.(float64)
		if !ok || !strings.HasSuffix(k, "_ms") || k == "total_ms" {
			continue
		}
		last.Stages[strings.TrimSuffix(k, "_ms")] = int64(ms * float64(time.Millisecond))
	}
	if len(last.Stages) == 0 {
		return fmt.Errorf("trace annex %q has no stage times", annex)
	}
	return nil
}

// replayStats are the per-layer counts the replay gathers besides spans.
type replayStats struct {
	reads, batches         int
	mutations              int // every mutation the engine logged, warm-up included
	taPostings, taRescores int
	taEarly                int
	exPostings             int
	results                int
	walBytes               float64
	ckptBytes, ckpts       float64
}

// replayStack is a private deployment for the replay: a durable engine
// over the workload's corpus and a server with a router in front of it,
// plus the engine's layers built separately — the discoverer, the
// activity index and its top-k processor — so each can be called on its
// own.
type replayStack struct {
	*system
	g    *graph.Graph
	disc *discovery.Discoverer
	proc *topk.Processor
}

func newReplayStack(s *system, workDir string) (*replayStack, error) {
	r := &replayStack{system: &system{w: s.w}}
	if err := r.start(s.corpus, workDir, true); err != nil {
		r.close()
		return nil, err
	}
	r.g = r.eng.Graph()
	r.disc = discovery.NewDiscoverer(r.g, "destination")
	cl, err := cluster.Build(r.g, cluster.PerUser, 0)
	if err != nil {
		r.close()
		return nil, err
	}
	ix, err := index.Build(index.Extract(r.g), cl, nil)
	if err != nil {
		r.close()
		return nil, err
	}
	if r.proc, err = topk.New(ix, nil); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// handle calls the server's handler directly, without a connection, and
// returns the trace annex when traced.
func (r *replayStack) handle(path, wantCache string, traced bool) (string, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if traced {
		req.Header.Set(serve.HeaderTrace, "1")
	}
	r.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("handler %s: %d %s", path, rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get(serve.HeaderCache); got != wantCache {
		return "", fmt.Errorf("handler %s: cache outcome %q, want %q", path, got, wantCache)
	}
	return rec.Header().Get(serve.HeaderTrace), nil
}

// replay runs the traced layer replay for the system's workload: a
// seeded sample of its reads, bottom-up through every layer of the read
// path, then the workload's write stream through every layer of the
// write path. Spans go to t.
func replay(s *system, seed int64, workDir string, t *tracer) (replayStats, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var st replayStats
	r, err := newReplayStack(s, workDir)
	if err != nil {
		return st, err
	}
	defer r.close()
	// Warm the connections and the engine's own index before timing.
	warm := sampleReads(s.ops, 1, seed)[0]
	for _, base := range []string{r.srvL.url, r.rtrL.url} {
		if _, _, err := r.fetch(base + searchPath(warm, true)); err != nil {
			return st, err
		}
	}
	// Collect between requests and not during them: a GC cycle's assists
	// land on whichever call allocates while it runs, so a call would pay
	// for the garbage of the calls before it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i, o := range sampleReads(s.ops, replayReads, seed+2) {
		runtime.GC()
		if err := r.replayRead(fmt.Sprintf("r%d", i), o, t, &st); err != nil {
			return st, err
		}
	}
	runtime.GC()
	if err := r.replayWrites(s, seed, workDir, t, &st); err != nil {
		return st, err
	}
	return st, nil
}

// replayRead replays one read. The miss chain runs from top-k up to the
// uncached handler; the hit chain from the handler on a cached answer up
// through loopback HTTP and the router.
func (r *replayStack) replayRead(req string, o op, t *tracer, st *replayStats) error {
	ctx := context.Background()
	q, err := discovery.ParseQuery(o.q)
	if err != nil {
		return err
	}
	uncached, cached := searchPath(o, true), searchPath(o, false)
	for rep := 0; rep < replayReps; rep++ {
		var ta, ex topk.Stats
		if err := t.call(req, "topk.query", "discovery.discover", func() (err error) {
			_, ta, err = r.proc.TopKCtx(ctx, o.user, q.Keywords, q.K, topk.TA)
			return err
		}); err != nil {
			return err
		}
		if err := t.call(req, "topk.exhaustive", "", func() (err error) {
			_, ex, err = r.proc.TopKCtx(ctx, o.user, q.Keywords, q.K, topk.Exhaustive)
			return err
		}); err != nil {
			return err
		}
		var msg *discovery.MSG
		if err := t.call(req, "discovery.discover", "engine.query", func() (err error) {
			msg, _, err = r.disc.DiscoverTaggedCtx(ctx, o.user, q, r.proc, topk.TA)
			return err
		}); err != nil {
			return err
		}
		items := make([]graph.NodeID, len(msg.Results))
		scores := make(map[graph.NodeID]float64, len(msg.Results))
		for i, res := range msg.Results {
			items[i], scores[res.Item] = res.Item, res.Score
		}
		// The engine's defaults: six groups, faceted by city.
		if len(items) > 0 {
			if err := t.call(req, "presentation.organize", "engine.query", func() error {
				_, err := presentation.Organize(r.g, items, scores,
					presentation.OrganizeConfig{MaxGroups: 6, FacetAttr: "city"})
				return err
			}); err != nil {
				return err
			}
		}
		if err := t.call(req, "presentation.explain", "engine.query", func() error {
			for _, it := range items {
				presentation.ExplainCF(r.g, o.user, it)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := t.call(req, "presentation.related", "engine.query", func() error {
			discovery.RelatedEntities(r.g, msg, 2, 5)
			return nil
		}); err != nil {
			return err
		}
		// The engine and the uncached handler run under the program's own
		// span, whose stage times split each call into the work of the
		// layers below and the layer's own: repeated calls of these
		// layers vary by far more than their self time.
		sp := obs.NewSpan()
		if err := t.call(req, "engine.query", "serve.miss", func() error {
			_, err := r.eng.QueryCtx(obs.WithSpan(ctx, sp), o.user, q)
			return err
		}); err != nil {
			return err
		}
		if err := t.stages(sp.Annex()); err != nil {
			return err
		}
		var annex string
		if err := t.call(req, "serve.miss", "", func() (err error) {
			annex, err = r.handle(uncached, string(serve.OutcomeBypass), true)
			return err
		}); err != nil {
			return err
		}
		if err := t.stages(annex); err != nil {
			return err
		}
		if rep == 0 {
			st.reads++
			st.taPostings += ta.PostingsScanned
			st.taRescores += ta.ExactScores
			if ta.EarlyTerminated {
				st.taEarly++
			}
			st.exPostings += ex.PostingsScanned
			st.results += len(msg.Results)
		}
	}
	if _, err := r.handle(cached, string(serve.OutcomeMiss), false); err != nil {
		return err
	}
	for rep := 0; rep < hopReps; rep++ {
		if err := t.call(req, "serve.hit", "http.get", func() error {
			_, err := r.handle(cached, string(serve.OutcomeHit), false)
			return err
		}); err != nil {
			return err
		}
		if err := t.call(req, "http.get", "route.get", func() error {
			_, _, err := r.fetch(r.srvL.url + cached)
			return err
		}); err != nil {
			return err
		}
		if err := t.call(req, "route.get", "", func() error {
			_, _, err := r.fetch(r.rtrL.url + cached)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// replayWrites drives the workload's churn stream, generated from the
// same seed, through the write path one batch at a time: the graph's
// copy-on-write apply, the index delta, a WAL append with fsync, and
// Engine.Apply on the durable engine, with an explicit checkpoint every
// ckptEvery batches. Read-only workloads get the same stream over their
// own corpus, so every workload reports what a write costs on it. The
// batches that fill the retraction window are applied untimed.
func (r *replayStack) replayWrites(s *system, seed int64, workDir string, t *tracer, st *replayStats) error {
	dir, err := os.MkdirTemp(workDir, "replay-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(vfs.OS{}, dir, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	before, err := r.counters()
	if err != nil {
		return err
	}
	c := newChurn(s.corpus, seed+1)
	g, ix := r.g, r.proc.Index()
	for b := 0; st.batches < replayBatches; b++ {
		timed := c.warm()
		req := fmt.Sprintf("w%d", b)
		muts := c.next()
		step := func(name string, fn func() error) error {
			if !timed {
				return fn()
			}
			return t.call(req, name, "", fn)
		}
		if err := step("graph.apply", func() error {
			next := g.ShallowClone()
			g = next
			return next.ApplyAll(muts)
		}); err != nil {
			return err
		}
		if err := step("index.apply_delta", func() error {
			ix = ix.ApplyDelta(muts)
			return nil
		}); err != nil {
			return err
		}
		if err := step("wal.append", func() error {
			_, err := log.AppendSync(1, graph.AppendMutations(nil, muts))
			return err
		}); err != nil {
			return err
		}
		if err := step("engine.apply", func() error { return r.eng.Apply(muts) }); err != nil {
			return err
		}
		c.ack(muts, r.eng.Version())
		st.mutations += len(muts)
		if !timed {
			continue
		}
		st.batches++
		if st.batches%ckptEvery == 0 {
			if err := t.call(req, "store.checkpoint", "", r.eng.Checkpoint); err != nil {
				return err
			}
		}
	}
	after, err := r.counters()
	if err != nil {
		return err
	}
	st.walBytes = after["ss_wal_append_bytes_total"] - before["ss_wal_append_bytes_total"]
	st.ckptBytes = after["ss_checkpoint_bytes_sum"] - before["ss_checkpoint_bytes_sum"]
	st.ckpts = after["ss_checkpoint_bytes_count"] - before["ss_checkpoint_bytes_count"]
	return nil
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}
