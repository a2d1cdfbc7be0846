package socialscope

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"socialscope/internal/discovery"
	"socialscope/internal/workload"
)

// answerAllocBudget is the allocation budget of one answer on the /search
// path — top-k discovery, organization, explanations and related
// entities — in TestAnswerAllocBudget: the 546 allocations measured once
// Graph.Out and Graph.In returned stored slices, plus 15%. Unlike wall time,
// allocations per query repeat on any machine, so the gate holds in CI.
const answerAllocBudget = 628

// TestAnswerAllocBudget gates the answer path on allocations per query,
// over a fixed categorical query set on a scale-1 travel site, each query
// for a user drawn uniformly.
func TestAnswerAllocBudget(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 300, Destinations: 100, Seed: 1, VisitsPerUser: 8, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(corpus.Graph, Config{ItemType: "destination", TopK: TopKTA, ClusterStrategy: "peruser"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var users []NodeID
	var qs []discovery.Query
	for i := 0; i < 32; i++ {
		q, err := discovery.ParseQuery(workload.Categories[rng.Intn(len(workload.Categories))])
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, corpus.Users[rng.Intn(len(corpus.Users))])
		qs = append(qs, q)
	}
	ctx := context.Background()
	results := 0
	run := func() {
		for i, q := range qs {
			resp, err := eng.QueryCtx(ctx, users[i], q)
			if err != nil {
				t.Fatal(err)
			}
			results += len(resp.MSG.Results)
		}
	}
	run() // build the index outside the measurement
	if results == 0 {
		t.Fatal("the query set found no results: nothing is measured")
	}
	perQuery := testing.AllocsPerRun(5, run) / float64(len(qs))
	t.Logf("%.0f allocs per query (budget %d), %.1f results per query", perQuery, answerAllocBudget, float64(results)/float64(len(qs)))
	if perQuery > answerAllocBudget {
		t.Fatalf("%.0f allocs per query, over the budget of %d", perQuery, answerAllocBudget)
	}
}

// Budgets for building a scale-1 travel corpus in TestCorpusBuildBudget:
// the 1.34 MB and 21.1k allocations measured once bulk windows appended
// to adjacency lists in place, plus 15%. The gate keeps the bulk path
// linear: copying an endpoint's whole list on every AddLink, which is
// O(degree²) per node, costs 4.62 MB and 30.7k allocations.
const (
	corpusBuildBytesBudget  = 1_545_600
	corpusBuildAllocsBudget = 24_208
)

// TestCorpusBuildBudget gates the bulk construction path on bytes and
// allocations per build of a scale-1 travel corpus.
func TestCorpusBuildBudget(t *testing.T) {
	cfg := workload.TravelConfig{Users: 300, Destinations: 100, Seed: 1, VisitsPerUser: 8, TagFraction: 0.8}
	build := func() {
		if _, err := workload.Travel(cfg); err != nil {
			t.Fatal(err)
		}
	}
	build()
	// As testing.AllocsPerRun does, measure on one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("%d bytes and %d allocations per build (budgets %d and %d)", bytes, allocs, corpusBuildBytesBudget, corpusBuildAllocsBudget)
	if bytes > corpusBuildBytesBudget {
		t.Errorf("%d bytes per build, over the budget of %d", bytes, corpusBuildBytesBudget)
	}
	if allocs > corpusBuildAllocsBudget {
		t.Errorf("%d allocations per build, over the budget of %d", allocs, corpusBuildAllocsBudget)
	}
}
