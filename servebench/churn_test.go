package main

import (
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

func TestChurnKeepsLinkCountLevel(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{Users: 30, Destinations: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := newChurn(corpus, 7)
	g := corpus.Graph
	version := uint64(0)
	apply := func(muts []graph.Mutation) {
		t.Helper()
		if len(muts) != churnBatch {
			t.Fatalf("batch of %d mutations, want %d", len(muts), churnBatch)
		}
		next := g.ShallowClone()
		if err := next.ApplyAll(muts); err != nil {
			t.Fatal(err)
		}
		g = next
		version++
		c.ack(muts, version)
	}
	warmUp := 0
	for !c.warm() {
		apply(c.next())
		warmUp++
	}
	if want := churnWindow / churnBatch; warmUp != want {
		t.Errorf("warm-up took %d batches, want %d", warmUp, want)
	}
	level := len(g.LinkIDs())
	if want := len(corpus.Graph.LinkIDs()) + churnWindow; level != want {
		t.Fatalf("after warm-up %d links, want %d", level, want)
	}
	for i := 0; i < 3*churnWindow/churnBatch; i++ {
		// Two batches in flight at once, as with two clients.
		a, b := c.next(), c.next()
		apply(a)
		apply(b)
		if n := len(g.LinkIDs()); n != level {
			t.Fatalf("round %d: %d links, want the level %d", i, n, level)
		}
	}
	if err := c.verify(g, version); err != nil {
		t.Fatalf("verify after clean churn: %v", err)
	}
	// A lost acknowledged tagging and an undone retraction are both caught.
	lost := g.ShallowClone()
	lost.RemoveLink(c.window[len(c.window)-1].ID)
	if err := c.verify(lost, version); err == nil {
		t.Error("verify missed a lost tagging")
	}
	// The oldest tagging was retracted first.
	retracted := c.base + 1
	if c.live[retracted] != nil || g.HasLink(retracted) {
		t.Fatalf("tagging %d not retracted after %d rounds", retracted, 3*churnWindow/churnBatch)
	}
	undone := g.ShallowClone()
	if err := undone.AddLink(graph.NewLink(retracted, corpus.Users[0], corpus.Destinations[0],
		graph.TypeAct, graph.SubtypeTag)); err != nil {
		t.Fatal(err)
	}
	if err := c.verify(undone, version); err == nil {
		t.Error("verify missed an undone retraction")
	}
	if err := c.verify(corpus.Graph, version); err == nil {
		t.Error("verify missed lost taggings in the genesis graph")
	}
	if err := c.verify(g, version-1); err == nil {
		t.Error("verify missed a version mismatch")
	}
	// A failed batch leaves its taggings unsure: the check accepts the
	// graph with or without it applied.
	failed := c.next()
	c.fail(failed)
	if err := c.verify(g, version); err != nil {
		t.Errorf("verify without the failed batch: %v", err)
	}
	applied := g.ShallowClone()
	if err := applied.ApplyAll(failed); err != nil {
		t.Fatal(err)
	}
	if err := c.verify(applied, version); err != nil {
		t.Errorf("verify with the failed batch: %v", err)
	}
}
