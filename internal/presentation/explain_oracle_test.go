package presentation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// explainCFOracle is the direct reading of Section 7.2's Expl(u,i) that
// ExplainCF replaced: scan every user in the graph, rebuild each one's
// acted-item set, and keep those who acted on the item with UserSim > 0.
// It costs O(|V|+|E|) per item and serves only as the reference the
// output-sensitive explainer is checked against.
func explainCFOracle(g *graph.Graph, user, item graph.NodeID) Explanation {
	ex := Explanation{Strategy: "cf"}
	friends := scoring.NewSet[graph.NodeID]()
	for _, l := range g.Incident(user) {
		if !l.HasType(graph.TypeConnect) {
			continue
		}
		other := l.Tgt
		if other == user {
			other = l.Src
		}
		friends.Add(other)
	}
	endorsingFriends := 0
	for _, n := range g.NodesOfType(graph.TypeUser) {
		other := n.ID
		if other == user {
			continue
		}
		if !actedItems(g, other).Has(item) {
			continue
		}
		sim := oracleUserSim(g, user, other)
		if sim <= 0 {
			continue
		}
		ex.Users = append(ex.Users, WeightedID{other, sim * rating(g, other, item)})
		if friends.Has(other) {
			endorsingFriends++
		}
	}
	sortWeighted(ex.Users)
	if friends.Len() > 0 {
		pct := 100 * endorsingFriends / friends.Len()
		ex.Summary = fmt.Sprintf("%d%% of your friends endorsed this item", pct)
	} else if len(ex.Users) > 0 {
		ex.Summary = fmt.Sprintf("%d similar users endorsed this item", len(ex.Users))
	} else {
		ex.Summary = "No social endorsement found for this item"
	}
	return ex
}

// oracleUserSim is UserSim(u, u'): 1 for directly connected users, else
// Jaccard of their acted-item sets.
func oracleUserSim(g *graph.Graph, a, b graph.NodeID) float64 {
	for _, l := range g.Incident(a) {
		if !l.HasType(graph.TypeConnect) {
			continue
		}
		if l.Src == b || l.Tgt == b {
			return 1
		}
	}
	return scoring.Jaccard(actedItems(g, a), actedItems(g, b))
}

// explainGroupCFOracle is ExplainGroup's "cf" aggregation over oracle
// item explanations.
func explainGroupCFOracle(g *graph.Graph, user graph.NodeID, group Group) Explanation {
	agg := Explanation{Strategy: "cf"}
	userW := map[graph.NodeID]float64{}
	for _, it := range group.Items {
		for _, w := range explainCFOracle(g, user, it).Users {
			userW[w.ID] += w.Weight
		}
	}
	for id, w := range userW {
		agg.Users = append(agg.Users, WeightedID{id, w})
	}
	sortWeighted(agg.Users)
	if len(agg.Users) > 0 {
		agg.Summary = fmt.Sprintf("Group %q is endorsed by %d related users", group.Label, len(agg.Users))
	} else {
		agg.Summary = fmt.Sprintf("Group %q has no social provenance", group.Label)
	}
	return agg
}

// randomCFGraph draws a small graph shaped to reach every branch of the
// CF explanation: users and non-user actors acting on items, parallel
// visit/tag/review links from one actor onto one item, self-connections,
// ratings absent, "0", non-numeric or numeric, act links onto non-items,
// and items nobody acted on. It returns the graph, its users and its
// items.
func randomCFGraph(rng *rand.Rand) (*graph.Graph, []graph.NodeID, []graph.NodeID) {
	b := graph.NewBuilder()
	var users, actors, items []graph.NodeID
	for i := 0; i < 2+rng.Intn(10); i++ {
		users = append(users, b.Node([]string{graph.TypeUser}))
	}
	actors = append(actors, users...)
	for i := 0; i < rng.Intn(3); i++ {
		actors = append(actors, b.Node([]string{graph.TypeGroup}))
	}
	for i := 0; i < 1+rng.Intn(8); i++ {
		items = append(items, b.Node([]string{graph.TypeItem}))
	}
	pick := func(ids []graph.NodeID) graph.NodeID { return ids[rng.Intn(len(ids))] }
	for i := 0; i < rng.Intn(2*len(users)+1); i++ {
		src, tgt := pick(users), pick(users)
		if rng.Intn(8) == 0 {
			tgt = src // self-connection
		}
		b.Link(src, tgt, []string{graph.TypeConnect, graph.SubtypeFriend})
	}
	subtypes := []string{graph.SubtypeVisit, graph.SubtypeTag, graph.SubtypeReview}
	ratings := []string{"", "", "0", "abc", "0.5", "4", "-2"}
	acts := rng.Intn(4 * len(actors))
	for i := 0; i < acts; i++ {
		src := pick(actors)
		tgt := pick(items)
		if rng.Intn(10) == 0 {
			tgt = pick(users) // an act onto a non-item still counts as acted
		}
		links := 1
		if rng.Intn(3) == 0 {
			links += 1 + rng.Intn(2) // parallel links from one actor onto one target
		}
		for k := 0; k < links; k++ {
			var kv []string
			if r := ratings[rng.Intn(len(ratings))]; r != "" {
				kv = []string{"rating", r}
			}
			b.Link(src, tgt, []string{graph.TypeAct, subtypes[rng.Intn(len(subtypes))]}, kv...)
		}
	}
	if rng.Intn(2) == 0 {
		b.Link(pick(items), pick(items), []string{graph.TypeBelong})
	}
	return b.Graph(), users, items
}

// TestExplainCFDifferential checks the output-sensitive explainer against
// the full-scan oracle on seeded random graphs: every (user, item) pair,
// through ExplainCF and through one shared CFExplainer per user whose
// memoized similarities carry across items, plus ExplainGroup's "cf"
// aggregation over all items.
func TestExplainCFDifferential(t *testing.T) {
	const graphs = 300
	explained := 0
	for seed := int64(0); seed < graphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, users, items := randomCFGraph(rng)
		for _, u := range users {
			x := NewCFExplainer(g, u)
			// Items in a seeded order, some twice, so memoized state is
			// reused in varying sequences.
			order := append(append([]graph.NodeID(nil), items...), items[rng.Intn(len(items))])
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, it := range order {
				want := explainCFOracle(g, u, it)
				if got := x.Explain(it); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d user %d item %d: shared explainer\n got %+v\nwant %+v", seed, u, it, got, want)
				}
				if got := ExplainCF(g, u, it); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d user %d item %d: ExplainCF\n got %+v\nwant %+v", seed, u, it, got, want)
				}
				explained += len(want.Users)
			}
			group := Group{Label: "all", Items: items}
			if got, want := ExplainGroup(g, u, group, "cf"), explainGroupCFOracle(g, u, group); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d user %d: ExplainGroup\n got %+v\nwant %+v", seed, u, got, want)
			}
		}
	}
	if explained == 0 {
		t.Fatal("no graph produced an endorser: the differential checked nothing")
	}
}
