package socialscope

import (
	"context"
	"encoding/json"
	"testing"

	"socialscope/internal/obs"
	"socialscope/internal/workload"
)

// traceStats mirrors the span keys recordQuery writes; marshaling both
// the annex and Response.Stats through it gives a byte-for-byte
// comparison that cannot drift from field renames.
type traceStats struct {
	Strategy        string `json:"strategy"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	PostingsScanned int    `json:"postings_scanned"`
	ExactScores     int    `json:"exact_scores"`
	Candidates      int    `json:"candidates"`
	EarlyTerminated bool   `json:"early_terminated"`
}

// TestTracePropagation attaches a span to the request context, runs an
// index-backed query, and asserts the work report the span carries is
// byte-for-byte the one the response reports: the serving layer's
// X-SS-Trace annex and Response.Stats must never disagree.
func TestTracePropagation(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, Config{
		ItemType: "destination", TopK: TopKTA, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	sp := obs.NewSpan()
	ctx := obs.WithSpan(context.Background(), sp)
	resp, err := eng.SearchCtx(ctx, corpus.Users[0], workload.Categories[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil {
		t.Fatal("keyword query on a TA engine produced no stats")
	}

	var fromSpan traceStats
	annex := sp.Annex()
	if err := json.Unmarshal([]byte(annex), &fromSpan); err != nil {
		t.Fatalf("annex not JSON: %v\n%s", err, annex)
	}
	fromResp := traceStats{
		Strategy:        resp.Stats.Strategy.String(),
		SnapshotVersion: resp.Stats.SnapshotVersion,
		PostingsScanned: resp.Stats.PostingsScanned,
		ExactScores:     resp.Stats.ExactScores,
		Candidates:      resp.Stats.Candidates,
		EarlyTerminated: resp.Stats.EarlyTerminated,
	}
	gotSpan, err := json.Marshal(fromSpan)
	if err != nil {
		t.Fatal(err)
	}
	gotResp, err := json.Marshal(fromResp)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotSpan) != string(gotResp) {
		t.Errorf("span and response disagree:\n span %s\n resp %s\n(annex %s)",
			gotSpan, gotResp, annex)
	}
	if resp.Stats.SnapshotVersion != resp.Version {
		t.Errorf("stats version %d != response version %d",
			resp.Stats.SnapshotVersion, resp.Version)
	}

	// The engine timed both evaluation stages onto the span.
	var m map[string]any
	if err := json.Unmarshal([]byte(annex), &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"discovery_ms", "presentation_ms", "total_ms"} {
		if _, ok := m[k]; !ok {
			t.Errorf("stage timing %q missing from annex %s", k, annex)
		}
	}
}

// TestTracePropagationFusion checks the fusion fallback path annotates
// too: a structural query bypasses the index but still labels the span
// with its strategy and snapshot version.
func TestTracePropagationFusion(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, Config{
		ItemType: "destination", TopK: TopKTA, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := obs.NewSpan()
	ctx := obs.WithSpan(context.Background(), sp)
	resp, err := eng.SearchCtx(ctx, corpus.Users[0], "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats != nil {
		t.Fatal("empty query should not use the index path")
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(sp.Annex()), &m); err != nil {
		t.Fatal(err)
	}
	if m["strategy"] != "fusion" {
		t.Errorf("fusion path labeled %v", m["strategy"])
	}
	if m["snapshot_version"] != float64(resp.Version) {
		t.Errorf("span version %v != response version %d", m["snapshot_version"], resp.Version)
	}
}

// TestTraceAbsentIsFree runs the same query with no span on the context:
// instrumentation must be invisible — same results, no annex.
func TestTraceAbsentIsFree(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, Config{
		ItemType: "destination", TopK: TopKTA, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.SearchCtx(context.Background(), corpus.Users[0], workload.Categories[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil {
		t.Fatal("stats lost without a span")
	}
	if sp := obs.SpanFrom(context.Background()); sp.Annex() != "" {
		t.Fatal("phantom annex")
	}
}

// TestTraceDiscoveryStageOnError checks a failed discovery still times
// its stage: an unknown user fails on both the index and the fusion path.
func TestTraceDiscoveryStageOnError(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, Config{
		ItemType: "destination", TopK: TopKTA, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{workload.Categories[0], ""} {
		sp := obs.NewSpan()
		if _, err := eng.SearchCtx(obs.WithSpan(context.Background(), sp), corpus.Graph.MaxNodeID()+1, q); err == nil {
			t.Fatalf("query %q for an unknown user succeeded", q)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(sp.Annex()), &m); err != nil {
			t.Fatal(err)
		}
		if _, ok := m["discovery_ms"]; !ok {
			t.Errorf("query %q: failed discovery left no stage time in %s", q, sp.Annex())
		}
	}
}
