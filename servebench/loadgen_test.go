package main

import (
	"testing"
	"time"
)

func oneLane(int) int { return 0 }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 30 * time.Millisecond
	// One client, an op due every millisecond; the first op stalls, so
	// the ops queued behind it leave late and are charged the wait.
	p := openLoop([]int{1}, 40*time.Millisecond, 1000, oneLane, func(i int) (bool, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return true, nil
	})
	if p.attempted != 40 || len(p.reads) != 40 || len(p.lags) != 40 {
		t.Fatalf("attempted %d, reads %d, lags %d; want 40 each", p.attempted, len(p.reads), len(p.lags))
	}
	if p.reads[0] < stall {
		t.Errorf("stalled op latency %v, want at least %v", p.reads[0], stall)
	}
	// Op 1 was due 1ms in but could leave only after the stall.
	if min := stall - time.Millisecond; p.lags[1] < min || p.reads[1] < min {
		t.Errorf("op behind the stall: lag %v, latency %v; want both at least %v", p.lags[1], p.reads[1], min)
	}
	for i := range p.reads {
		if p.reads[i] < p.lags[i] {
			t.Fatalf("op %d: latency %v below its lag %v", i, p.reads[i], p.lags[i])
		}
	}
}

func TestPhaseAdd(t *testing.T) {
	var p phase
	var elapsed time.Duration
	for i := 0; i < 3; i++ {
		q := openLoop([]int{2}, 10*time.Millisecond, 1000, oneLane, func(i int) (bool, error) { return i%2 == 0, nil })
		elapsed += q.elapsed
		p.add(q)
	}
	if p.attempted != 30 || len(p.reads) != 15 || len(p.writes) != 15 || len(p.lags) != 30 || p.elapsed != elapsed {
		t.Errorf("three slices: attempted %d, reads %d, writes %d, lags %d, elapsed %v",
			p.attempted, len(p.reads), len(p.writes), len(p.lags), p.elapsed)
	}
}

func TestOpenLoopLanes(t *testing.T) {
	// Odd ops are slow writes on lane 1; even ops are reads on lane 0,
	// which must not queue behind them.
	laneOf := func(i int) int { return i % 2 }
	p := openLoop([]int{1, 1}, 100*time.Millisecond, 200, laneOf, func(i int) (bool, error) {
		if i%2 == 1 {
			time.Sleep(20 * time.Millisecond)
			return false, nil
		}
		return true, nil
	})
	if len(p.reads) != 10 || len(p.writes) != 10 || p.attempted != 20 {
		t.Fatalf("reads %d, writes %d, attempted %d; want 10, 10, 20", len(p.reads), len(p.writes), p.attempted)
	}
	// Writes arrive every 10ms and take 20ms: their queue grows.
	if last := p.writes[len(p.writes)-1]; last < 50*time.Millisecond {
		t.Errorf("last write waited %v; a saturated lane should queue", last)
	}
	if worst := durationsMs(p.reads)[len(p.reads)-1]; worst > 15 {
		t.Errorf("a read took %.1fms; reads must not wait for the write lane", worst)
	}
}
