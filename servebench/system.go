package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"socialscope"
	"socialscope/internal/obs"
	"socialscope/internal/route"
	"socialscope/internal/serve"
	"socialscope/internal/workload"
)

// clients is the load generator's connection count: nproc on the 2-core
// box the benchmark was defined on, so the generator never needs more
// threads than the machine has.
const clients = 2

// checkpointEvery is ssserve's -ckptevery default.
const checkpointEvery = 64

func engineConfig(reg *obs.Registry) socialscope.Config {
	return socialscope.Config{
		ItemType: "destination", TopK: socialscope.TopKTA, ClusterStrategy: "peruser", Obs: reg,
	}
}

// server is what listen runs: a *serve.Server or an *http.Server.
type server interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// listener is a server on a loopback port.
type listener struct {
	url  string
	srv  server
	done chan error
}

func listen(srv server) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: srv, done: make(chan error, 1)}
	go func() { l.done <- srv.Serve(ln) }()
	return l, nil
}

func (l *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// system is one deployment under test: a durable engine over the
// workload's corpus (fsync before ack, a checkpoint every 64 batches), a
// serve.Server on a loopback port and, for routed workloads, a
// route.Router in front of it. Everything runs in this process.
type system struct {
	w      *workloadDef
	corpus *workload.TravelCorpus
	dir    string
	eng    *socialscope.Engine
	srv    *serve.Server
	srvL   *listener
	router *route.Router
	rtrL   *listener
	url    string // where clients send: the router when routed, else the server
	client *http.Client
	ops    []op
	writes bool // the stream has writes
	churn  *churn
	// setupCPU and setupWall are the process CPU and wall time of the
	// set-up: corpus, engine, servers and warm-up, not op generation.
	setupCPU, setupWall time.Duration
	trace               bool // send X-SS-Trace and keep the annexes
	annexMu             sync.Mutex
	annexes             []string
}

// startSystem builds the workload's deployment and warms it up.
func startSystem(w *workloadDef, seed int64, workDir string) (*system, error) {
	// Collect first, so the set-up does not pay for earlier garbage.
	runtime.GC()
	start, cpu0 := time.Now(), processCPU()
	s := &system{w: w}
	corpus, err := w.corpus(seed)
	if err == nil {
		err = s.start(corpus, workDir, w.routed)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.setupWall, s.setupCPU = time.Since(start), processCPU()-cpu0
	// The op stream is benchmark input, not set-up work.
	ops, err := w.ops(s.corpus, seed)
	if err != nil {
		s.close()
		return nil, err
	}
	s.ops = ops
	for _, o := range ops {
		s.writes = s.writes || o.write
	}
	s.churn = newChurn(s.corpus, seed+1)
	start, cpu0 = time.Now(), processCPU()
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.setupWall, s.setupCPU = s.setupWall+time.Since(start), s.setupCPU+processCPU()-cpu0
	return s, nil
}

// start deploys the corpus: a durable engine in a new directory under
// workDir, a server and, when routed, a router in front of it.
func (s *system) start(corpus *workload.TravelCorpus, workDir string, routed bool) error {
	// One registry for the engine and the server, which serves it at
	// /metrics.
	reg := obs.NewRegistry()
	s.corpus = corpus
	var err error
	if s.dir, err = os.MkdirTemp(workDir, s.w.name+"-"); err != nil {
		return err
	}
	s.eng, err = socialscope.OpenDurable(s.dir, s.corpus.Graph, engineConfig(reg),
		socialscope.DurableOptions{CheckpointEvery: checkpointEvery})
	if err != nil {
		return err
	}
	s.srv = serve.New(s.eng, serve.Config{Obs: reg})
	if s.srvL, err = listen(s.srv); err != nil {
		return err
	}
	s.url = s.srvL.url
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}
	if routed {
		if s.router, s.rtrL, err = startRouter(s.srvL.url); err != nil {
			return err
		}
		s.url = s.rtrL.url
	}
	return nil
}

// startRouter puts a router with its own registry in front of backend.
func startRouter(backend string) (*route.Router, *listener, error) {
	r, err := route.New(route.Config{
		Backends: []string{backend},
		Client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 2}},
		Seed:     1,
	})
	if err != nil {
		return nil, nil, err
	}
	l, err := listen(&http.Server{Handler: r.Handler()})
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	return r, l, nil
}

// warmUp pays the one-time costs no request should: the first tagged
// query builds the index, a hot workload caches its hot set, and a
// writing workload fills its retraction window.
func (s *system) warmUp() error {
	seen := make(map[op]bool)
	for _, o := range s.ops {
		if o.write {
			continue
		}
		if seen[o] || (len(seen) > 0 && !s.w.warmCache) {
			continue
		}
		seen[o] = true
		if _, _, err := s.get(o, false); err != nil {
			return err
		}
	}
	for s.writes && !s.churn.warm() {
		if err := s.write(); err != nil {
			return err
		}
	}
	return nil
}

// close releases everything the system holds.
func (s *system) close() {
	s.stopServing()
	if s.eng != nil {
		s.eng.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// stopServing shuts the router and server down; the server's shutdown
// flushes the write coalescer, so every accepted write is applied.
func (s *system) stopServing() {
	if s.rtrL != nil {
		s.rtrL.stop()
		s.router.Close()
		s.rtrL, s.router = nil, nil
	}
	if s.srvL != nil {
		s.srvL.stop()
		s.srvL = nil
	} else if s.srv != nil {
		s.srv.Close()
	}
	s.srv = nil
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// do issues op i of the stream: the loadgen's opFunc.
func (s *system) do(i int) (bool, error) {
	o := s.ops[i%len(s.ops)]
	if o.write {
		return false, s.write()
	}
	_, _, err := s.get(o, false)
	return true, err
}

func searchPath(o op, nocache bool) string {
	v := url.Values{"user": {strconv.FormatInt(int64(o.user), 10)}, "q": {o.q}}
	if nocache {
		v.Set("nocache", "1")
	}
	return "/search?" + v.Encode()
}

// get sends one /search and returns the body and headers of a 200 answer.
func (s *system) get(o op, nocache bool) ([]byte, http.Header, error) {
	return s.fetch(s.url + searchPath(o, nocache))
}

// fetch sends a GET to target and returns the body and headers of a 200
// answer.
func (s *system) fetch(target string) ([]byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return nil, nil, err
	}
	return s.send(req)
}

func (s *system) send(req *http.Request) ([]byte, http.Header, error) {
	if s.trace {
		req.Header.Set(serve.HeaderTrace, "1")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, body)
	}
	if s.trace {
		s.annexMu.Lock()
		s.annexes = append(s.annexes, resp.Header.Get(serve.HeaderTrace))
		s.annexMu.Unlock()
	}
	return body, resp.Header, nil
}

// write sends the churn's next batch to /apply and records the ack.
func (s *system) write() error {
	muts := s.churn.next()
	req := serve.ApplyRequest{Mutations: make([]serve.MutationWire, len(muts))}
	for i, m := range muts {
		req.Mutations[i] = serve.MutationToWire(m)
	}
	version, err := s.post(req)
	if err != nil {
		s.churn.fail(muts)
		return err
	}
	s.churn.ack(muts, version)
	return nil
}

func (s *system) post(body serve.ApplyRequest) (uint64, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, s.url+"/apply", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	out, _, err := s.send(req)
	if err != nil {
		return 0, err
	}
	var ack serve.ApplyResponse
	if err := json.Unmarshal(out, &ack); err != nil {
		return 0, fmt.Errorf("apply answer: %w", err)
	}
	return ack.Version, nil
}

// counters reads the program's own /metrics: the server's and, when
// routed, the router's. Labelled series are summed per name.
func (s *system) counters() (map[string]float64, error) {
	out := make(map[string]float64)
	bases := []string{s.srvL.url}
	if s.rtrL != nil {
		bases = append(bases, s.rtrL.url)
	}
	for _, base := range bases {
		req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return nil, err
		}
		err = parseMetrics(resp.Body, out)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", base, err)
		}
	}
	return out, nil
}

// parseMetrics adds the Prometheus text exposition in r to out, summing
// the series of each name; histogram buckets are skipped, their _sum and
// _count kept.
func parseMetrics(r io.Reader, out map[string]float64) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("bad line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("bad value in %q: %w", line, err)
		}
		out[name] += v
	}
	return sc.Err()
}

// recover shuts the deployment down, closes the engine, reopens its
// directory and checks the recovered engine against every acknowledged
// write. It returns the reopen time.
func (s *system) recover() (time.Duration, error) {
	s.stopServing()
	want := s.eng.Version()
	if err := s.eng.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	s.eng = nil
	start := time.Now()
	eng, err := socialscope.OpenDurable(s.dir, nil, engineConfig(obs.NewRegistry()),
		socialscope.DurableOptions{CheckpointEvery: checkpointEvery})
	took := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer eng.Close()
	if eng.Version() != want {
		return took, fmt.Errorf("recovered version %d, engine was at %d", eng.Version(), want)
	}
	return took, s.churn.verify(eng.Graph(), eng.Version())
}
