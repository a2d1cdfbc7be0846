package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc issues operation i of the workload's stream and reports whether
// it was a read.
type opFunc func(i int) (read bool, err error)

// phase is what one load phase measured.
type phase struct {
	reads, writes []time.Duration // per op: from due time (open loop) or send (closed loop) to answer
	lags          []time.Duration // open loop: how late each op was sent after its due time
	attempted     int
	failed        int
	firstErr      error
	elapsed       time.Duration
	cpu           time.Duration // process user+sys CPU time over the phase
	allocBytes    uint64        // heap bytes allocated over the phase
	gcs           uint32        // GC cycles over the phase
}

func (p *phase) completed() int { return p.attempted - p.failed }

// dropSamples releases the per-op samples once they are summarized.
func (p *phase) dropSamples() { p.reads, p.writes, p.lags = nil, nil, nil }

// worker is one client's share of a phase, merged when the phase ends.
type worker struct {
	reads, writes, lags []time.Duration
	attempted, failed   int
	firstErr            error
}

func (w *worker) record(read bool, err error, lat time.Duration) {
	w.attempted++
	switch {
	case err != nil:
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	case read:
		w.reads = append(w.reads, lat)
	default:
		w.writes = append(w.writes, lat)
	}
}

// runPhase runs body on n workers and gathers what they measured,
// together with the process CPU and allocation spent meanwhile.
func runPhase(n int, body func(w *worker)) phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	ws := make([]worker, n)
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			body(w)
		}(&ws[i])
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start), cpu: processCPU() - cpu0}
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	for _, w := range ws {
		p.merge(w)
	}
	return p
}

// add appends another slice of the same phase.
func (p *phase) add(q phase) {
	p.merge(worker{reads: q.reads, writes: q.writes, lags: q.lags,
		attempted: q.attempted, failed: q.failed, firstErr: q.firstErr})
	p.elapsed += q.elapsed
	p.cpu += q.cpu
	p.allocBytes += q.allocBytes
	p.gcs += q.gcs
}

func (p *phase) merge(w worker) {
	p.reads = append(p.reads, w.reads...)
	p.writes = append(p.writes, w.writes...)
	p.lags = append(p.lags, w.lags...)
	p.attempted += w.attempted
	p.failed += w.failed
	if p.firstErr == nil {
		p.firstErr = w.firstErr
	}
}

// closedLoop runs clients that each send their next op only after the
// previous one answered, for d. Ops are numbered in issue order across
// clients.
func closedLoop(clients int, d time.Duration, op opFunc) phase {
	var next atomic.Int64
	deadline := time.Now().Add(d)
	return runPhase(clients, func(w *worker) {
		for time.Now().Before(deadline) {
			i := int(next.Add(1) - 1)
			sent := time.Now()
			read, err := op(i)
			w.record(read, err, time.Since(sent))
		}
	})
}

// openLoop sends ops on a fixed schedule, op i due at start + i/rate, for
// d. laneOf assigns each op to a lane and lanes[l] is how many clients
// serve lane l, taking its ops in due order: a slow class of ops then
// cannot hold the connection another class waits for. Latency runs from
// the due time, so a stalled client also charges the wait it imposes on
// the ops queued behind it; lag records how late each op left. The phase
// lists reads, writes and lags in due order.
func openLoop(lanes []int, d time.Duration, rate float64, laneOf func(i int) int, op opFunc) phase {
	n := int(d.Seconds() * rate)
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]time.Duration, n)
	lag := make([]time.Duration, n)
	read := make([]bool, n)
	errs := make([]error, n)
	cursors := make([]atomic.Int64, len(lanes))
	// take returns the lane's next op, or n when it has none left.
	take := func(lane int) int {
		for {
			i := int(cursors[lane].Add(1) - 1)
			if i >= n {
				return n
			}
			if laneOf(i) == lane {
				return i
			}
		}
	}
	var clientLanes []int
	for lane, c := range lanes {
		for ; c > 0; c-- {
			clientLanes = append(clientLanes, lane)
		}
	}
	var next atomic.Int64 // hands each client its lane
	start := time.Now()
	p := runPhase(len(clientLanes), func(*worker) {
		lane := clientLanes[next.Add(1)-1]
		for i := take(lane); i < n; i = take(lane) {
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				sleep(wait)
			}
			lag[i] = time.Since(due)
			read[i], errs[i] = op(i)
			lat[i] = time.Since(due)
		}
	})
	var inOrder worker
	for i := 0; i < n; i++ {
		inOrder.record(read[i], errs[i], lat[i])
		inOrder.lags = append(inOrder.lags, lag[i])
	}
	p.merge(inOrder)
	return p
}

// processCPU is the user+sys CPU time the process has used: the server
// runs in this process, so it prices the whole system per op.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleep blocks the calling thread in nanosleep. The runtime's own timers
// wake an idle process on a millisecond grid, which would make a sender
// up to a millisecond late for every op of a fast workload.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}
