package presentation_test

import (
	"math/rand"
	"reflect"
	"testing"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/presentation"
	"socialscope/internal/workload"
)

// TestEngineExplanationsMatchOracle answers categorical queries through
// the engine on a scale-1 travel site and checks every explanation in
// each Response, and the "cf" explanation of every presented group,
// against the full-scan oracle.
func TestEngineExplanationsMatchOracle(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 300, Destinations: 100, Seed: 2, VisitsPerUser: 8, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{
		ItemType: "destination", TopK: socialscope.TopKTA, ClusterStrategy: "peruser",
	})
	if err != nil {
		t.Fatal(err)
	}
	g := eng.Graph()
	rng := rand.New(rand.NewSource(2))
	explained, groups := 0, 0
	for i := 0; i < 40; i++ {
		user := corpus.Users[rng.Intn(len(corpus.Users))]
		q, err := discovery.ParseQuery(workload.Categories[rng.Intn(len(workload.Categories))])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := eng.Query(user, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Explanations) != len(resp.MSG.Results) {
			t.Fatalf("user %d %v: %d explanations for %d results", user, q, len(resp.Explanations), len(resp.MSG.Results))
		}
		for _, r := range resp.MSG.Results {
			want := presentation.ExplainCFOracle(g, user, r.Item)
			if got := resp.Explanations[r.Item]; !reflect.DeepEqual(got, want) {
				t.Fatalf("user %d item %d:\n got %+v\nwant %+v", user, r.Item, got, want)
			}
			explained += len(want.Users)
		}
		for _, grp := range resp.Presentation.Chosen.Groups {
			want := presentation.ExplainGroupCFOracle(g, user, grp)
			if got := presentation.ExplainGroup(g, user, grp, "cf"); !reflect.DeepEqual(got, want) {
				t.Fatalf("user %d group %q:\n got %+v\nwant %+v", user, grp.Label, got, want)
			}
			groups++
		}
	}
	if explained == 0 || groups == 0 {
		t.Fatalf("%d endorsers, %d groups: the check compared nothing", explained, groups)
	}
}
