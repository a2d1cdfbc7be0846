package presentation

import (
	"fmt"
	"slices"
	"sort"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// Explanation is Section 7.2's Expl(u, i): the items or users grounding a
// recommendation, each with its similarity weight, plus the aggregate
// phrasing ("60% of your friends endorsed this item").
type Explanation struct {
	Strategy string // "content" or "cf"
	Items    []WeightedID
	Users    []WeightedID
	Summary  string
}

// WeightedID is one explanation element with its weight
// (ItemSim × rating or UserSim × rating per the paper).
type WeightedID struct {
	ID     graph.NodeID
	Weight float64
}

// rating returns rating(u, i): the rating attribute of u's act link onto
// i, or 0 when u has not rated i (the paper's convention). Unrated acts
// count as endorsement strength 1.
func rating(g *graph.Graph, user, item graph.NodeID) float64 {
	for _, l := range g.Out(user) {
		if l.Tgt == item && l.HasType(graph.TypeAct) {
			return linkRating(l)
		}
	}
	return 0
}

// linkRating is an act link's endorsement strength: its rating attribute,
// or 1 when it carries no numeric rating.
func linkRating(l *graph.Link) float64 {
	if v, ok := l.Attrs.Float("rating"); ok {
		return v
	}
	return 1
}

// itemSim is ItemSim(i, i'): Jaccard over the items' content token sets.
// Only attribute text participates — the shared type vocabulary ('item',
// 'destination') would otherwise make every pair spuriously similar.
func itemSim(g *graph.Graph, a, b graph.NodeID) float64 {
	na, nb := g.Node(a), g.Node(b)
	if na == nil || nb == nil {
		return 0
	}
	return scoring.Jaccard(scoring.TokenSet(na.Attrs.Text()), scoring.TokenSet(nb.Attrs.Text()))
}

func actedItems(g *graph.Graph, u graph.NodeID) scoring.Set[graph.NodeID] {
	s := scoring.NewSet[graph.NodeID]()
	for _, l := range g.Out(u) {
		if l.HasType(graph.TypeAct) {
			s.Add(l.Tgt)
		}
	}
	return s
}

// ExplainContent builds the content-based explanation:
// Expl(u,i) = {i' ∈ Items(u) | ItemSim(i,i') > 0}, weighted by
// ItemSim(i,i') × rating(u,i').
func ExplainContent(g *graph.Graph, user, item graph.NodeID) Explanation {
	ex := Explanation{Strategy: "content"}
	past := scoring.SortedInts(actedItems(g, user))
	var totalPast int
	for _, p := range past {
		if p == item {
			continue
		}
		totalPast++
		if sim := itemSim(g, item, p); sim > 0 {
			ex.Items = append(ex.Items, WeightedID{p, sim * rating(g, user, p)})
		}
	}
	sortWeighted(ex.Items)
	if totalPast > 0 {
		pct := 100 * len(ex.Items) / totalPast
		ex.Summary = fmt.Sprintf("This item is similar to %d%% of items you visited before", pct)
	} else {
		ex.Summary = "You have no past activity to relate this item to"
	}
	return ex
}

// ExplainCF builds the collaborative-filtering explanation:
// Expl(u,i) = {u' | UserSim(u,u') > 0 & i ∈ Items(u')}, weighted by
// UserSim(u,u') × rating(u',i). The aggregate phrasing counts the user's
// direct connections among the endorsers.
//
// It walks only the item's incoming act links, so it costs
// O(in-degree(item) + Σ out-degree(endorser)) plus the user's own
// neighbourhood, independent of the graph's size. Explaining several
// items for one user should share a CFExplainer instead, which pays for
// the user's neighbourhood and each endorser's similarity once.
func ExplainCF(g *graph.Graph, user, item graph.NodeID) Explanation {
	return NewCFExplainer(g, user).Explain(item)
}

// CFExplainer explains items to one user against one graph snapshot, as
// ExplainCF does. It builds the user's friend set and acted-item set once
// and memoizes UserSim(user, endorser) across items, since the similarity
// does not depend on the item. It is not safe for concurrent use.
type CFExplainer struct {
	g       *graph.Graph
	user    graph.NodeID
	friends scoring.Set[graph.NodeID]
	acted   scoring.Set[graph.NodeID]
	sims    map[graph.NodeID]float64 // UserSim(user, ·); 0 for non-users
	seen    map[graph.NodeID]bool    // endorsers met for the current item
	targets []graph.NodeID           // scratch for one endorser's acted items
}

// NewCFExplainer prepares collaborative-filtering explanations of items
// for user over g.
func NewCFExplainer(g *graph.Graph, user graph.NodeID) *CFExplainer {
	x := &CFExplainer{
		g:       g,
		user:    user,
		friends: scoring.NewSet[graph.NodeID](),
		acted:   actedItems(g, user),
		sims:    map[graph.NodeID]float64{},
		seen:    map[graph.NodeID]bool{},
	}
	for _, l := range g.Incident(user) {
		if !l.HasType(graph.TypeConnect) {
			continue
		}
		other := l.Tgt
		if other == user {
			other = l.Src
		}
		x.friends.Add(other)
	}
	return x
}

// Explain returns Expl(user, item). Each endorser's rating comes from its
// first act link onto the item in link-id order.
func (x *CFExplainer) Explain(item graph.NodeID) Explanation {
	ex := Explanation{Strategy: "cf"}
	clear(x.seen)
	endorsingFriends := 0
	for _, l := range x.g.In(item) {
		other := l.Src
		if other == x.user || !l.HasType(graph.TypeAct) || x.seen[other] {
			continue
		}
		x.seen[other] = true
		sim := x.userSim(other)
		if sim <= 0 {
			continue
		}
		ex.Users = append(ex.Users, WeightedID{other, sim * linkRating(l)})
		if x.friends.Has(other) {
			endorsingFriends++
		}
	}
	sortWeighted(ex.Users)
	if x.friends.Len() > 0 {
		pct := 100 * endorsingFriends / x.friends.Len()
		ex.Summary = fmt.Sprintf("%d%% of your friends endorsed this item", pct)
	} else if len(ex.Users) > 0 {
		ex.Summary = fmt.Sprintf("%d similar users endorsed this item", len(ex.Users))
	} else {
		ex.Summary = "No social endorsement found for this item"
	}
	return ex
}

// userSim is UserSim(user, other), memoized: 0 when other is not a user
// node, 1 for a direct connection, else the Jaccard of the two users'
// acted-item sets (0 for strangers with no overlap, matching "it is 0 if
// u and u' are not connected").
func (x *CFExplainer) userSim(other graph.NodeID) float64 {
	if sim, ok := x.sims[other]; ok {
		return sim
	}
	var sim float64
	switch n := x.g.Node(other); {
	case n == nil || !n.HasType(graph.TypeUser):
	case x.friends.Has(other):
		sim = 1
	default:
		sim = x.jaccard(other)
	}
	x.sims[other] = sim
	return sim
}

// jaccard is |A∩B| / |A∪B| over the user's and other's acted-item sets,
// counting other's distinct act targets in a reused sorted scratch slice
// rather than building a set per endorser.
func (x *CFExplainer) jaccard(other graph.NodeID) float64 {
	ts := x.targets[:0]
	for _, l := range x.g.Out(other) {
		if l.HasType(graph.TypeAct) {
			ts = append(ts, l.Tgt)
		}
	}
	slices.Sort(ts)
	x.targets = ts
	distinct, inter := 0, 0
	for i, t := range ts {
		if i > 0 && t == ts[i-1] {
			continue
		}
		distinct++
		if x.acted.Has(t) {
			inter++
		}
	}
	union := x.acted.Len() + distinct - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// ExplainGroup aggregates item explanations into a group-level explanation
// (Section 7.2's Expl(u, g)): the union of the member explanations'
// users/items with summed weights, summarized concisely.
func ExplainGroup(g *graph.Graph, user graph.NodeID, group Group, strategy string) Explanation {
	agg := Explanation{Strategy: strategy}
	userW := map[graph.NodeID]float64{}
	itemW := map[graph.NodeID]float64{}
	var cf *CFExplainer
	if strategy != "content" {
		cf = NewCFExplainer(g, user)
	}
	for _, it := range group.Items {
		var ex Explanation
		if cf == nil {
			ex = ExplainContent(g, user, it)
		} else {
			ex = cf.Explain(it)
		}
		for _, w := range ex.Users {
			userW[w.ID] += w.Weight
		}
		for _, w := range ex.Items {
			itemW[w.ID] += w.Weight
		}
	}
	for id, w := range userW {
		agg.Users = append(agg.Users, WeightedID{id, w})
	}
	for id, w := range itemW {
		agg.Items = append(agg.Items, WeightedID{id, w})
	}
	sortWeighted(agg.Users)
	sortWeighted(agg.Items)
	switch {
	case len(agg.Users) > 0:
		agg.Summary = fmt.Sprintf("Group %q is endorsed by %d related users", group.Label, len(agg.Users))
	case len(agg.Items) > 0:
		agg.Summary = fmt.Sprintf("Group %q is similar to %d items you know", group.Label, len(agg.Items))
	default:
		agg.Summary = fmt.Sprintf("Group %q has no social provenance", group.Label)
	}
	return agg
}

func sortWeighted(ws []WeightedID) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Weight != ws[j].Weight {
			return ws[i].Weight > ws[j].Weight
		}
		return ws[i].ID < ws[j].ID
	})
}
