package socialscope

import (
	"context"
	"math/rand"
	"testing"

	"socialscope/internal/discovery"
	"socialscope/internal/workload"
)

// answerAllocBudget is the allocation budget of one answer on the /search
// path — top-k discovery, organization, explanations and related
// entities — in TestAnswerAllocBudget: the 715 allocations measured when
// the explanations became output-sensitive, plus 15%. Unlike wall time,
// allocations per query repeat on any machine, so the gate holds in CI.
const answerAllocBudget = 822

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
