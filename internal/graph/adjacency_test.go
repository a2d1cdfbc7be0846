package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"socialscope/internal/persist"
)

// adjacencyOracle is the adjacency representation Graph used before it
// stored []*Link: per-node ascending link-id lists kept by copy-on-write
// InsertSorted/RemoveSorted, resolved to link values through the link map
// on every read. It is the slow reference the stored lists are checked
// against. Being persistent, a copy of the struct is an O(1) snapshot.
type adjacencyOracle struct {
	out, in persist.Map[NodeID, []LinkID]
}

func newAdjacencyOracle() adjacencyOracle {
	return adjacencyOracle{
		out: persist.NewIntMap[NodeID, []LinkID](),
		in:  persist.NewIntMap[NodeID, []LinkID](),
	}
}

func (o *adjacencyOracle) addLink(l *Link) {
	o.out = o.out.Set(l.Src, persist.InsertSorted(o.out.At(l.Src), l.ID))
	o.in = o.in.Set(l.Tgt, persist.InsertSorted(o.in.At(l.Tgt), l.ID))
}

func (o *adjacencyOracle) removeLink(l *Link) {
	o.out = o.out.Set(l.Src, persist.RemoveSorted(o.out.At(l.Src), l.ID))
	o.in = o.in.Set(l.Tgt, persist.RemoveSorted(o.in.At(l.Tgt), l.ID))
}

// removeNode drops the node's incident links, which must be resolved
// through g before g removes them.
func (o *adjacencyOracle) removeNode(g *Graph, id NodeID) {
	for _, l := range resolve(g, append(slices.Clone(o.out.At(id)), o.in.At(id)...)) {
		o.removeLink(l)
	}
	o.out = o.out.Delete(id)
	o.in = o.in.Delete(id)
}

// resolve is the old linkSlice: one link-map lookup per id.
func resolve(g *Graph, ids []LinkID) []*Link {
	ls := make([]*Link, 0, len(ids))
	for _, id := range ids {
		ls = append(ls, g.Link(id))
	}
	return ls
}

func (o *adjacencyOracle) outOf(g *Graph, id NodeID) []*Link { return resolve(g, o.out.At(id)) }
func (o *adjacencyOracle) inOf(g *Graph, id NodeID) []*Link  { return resolve(g, o.in.At(id)) }

// world is a graph under test together with its oracle.
type world struct {
	g *Graph
	o adjacencyOracle
}

func (w world) snapshot() world { return world{g: w.g.ShallowClone(), o: w.o} }

// sameLinks reports whether got is want element for element (the same
// pointers, hence the same ids in the same order) with len == cap. The
// oracle resolves through the link map, so equal pointers also mean each
// element is the link map's own value.
func sameLinks(got, want []*Link) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d links, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("element %d is %v, want %v", i, got[i], want[i])
		}
	}
	if cap(got) != len(got) {
		return fmt.Errorf("len %d != cap %d", len(got), cap(got))
	}
	return nil
}

// check compares Out, In and Incident of every node id up to the graph's
// high-water mark (removed ones included) against the oracle.
func (w world) check(t *testing.T, when string) {
	t.Helper()
	for id := NodeID(0); id <= w.g.MaxNodeID()+1; id++ {
		wantOut, wantIn := w.o.outOf(w.g, id), w.o.inOf(w.g, id)
		for i := 1; i < len(wantOut); i++ {
			if wantOut[i-1].ID >= wantOut[i].ID {
				t.Fatalf("%s: oracle out list of node %d not ascending", when, id)
			}
		}
		if err := sameLinks(w.g.Out(id), wantOut); err != nil {
			t.Fatalf("%s: Out(%d): %v", when, id, err)
		}
		if err := sameLinks(w.g.In(id), wantIn); err != nil {
			t.Fatalf("%s: In(%d): %v", when, id, err)
		}
		if err := sameLinks(w.g.Incident(id), append(wantOut, wantIn...)); err != nil {
			t.Fatalf("%s: Incident(%d): %v", when, id, err)
		}
	}
	if err := w.g.Validate(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

var differentialTypes = [][]string{
	{TypeAct, SubtypeTag}, {TypeAct, SubtypeVisit}, {TypeConnect, SubtypeFriend},
	{TypeMatch}, {TypeAct, SubtypeReview, "extra"},
}

// mutator draws random operations against a world and mirrors each on
// its oracle.
type mutator struct {
	rng  *rand.Rand
	ids  *IDSource
	step int
}

func (m *mutator) pickNode(g *Graph) (NodeID, bool) {
	ids := g.NodeIDs()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[m.rng.Intn(len(ids))], true
}

func (m *mutator) pickLink(g *Graph) (*Link, bool) {
	ids := g.LinkIDs()
	if len(ids) == 0 {
		return nil, false
	}
	return g.Link(ids[m.rng.Intn(len(ids))]), true
}

func (m *mutator) addNode(t *testing.T, w *world) NodeID {
	n := NewNode(m.ids.NextNode(), TypeUser)
	if err := w.g.AddNode(n); err != nil {
		t.Fatal(err)
	}
	return n.ID
}

// addLink adds a fresh link from src (a random node when src is 0) to a
// random node, through AddLink or a non-consolidating PutLink.
func (m *mutator) addLink(t *testing.T, w *world, src NodeID) {
	if src == 0 {
		var ok bool
		if src, ok = m.pickNode(w.g); !ok {
			return
		}
	}
	tgt, _ := m.pickNode(w.g)
	if m.rng.Intn(4) == 0 {
		src, tgt = tgt, src
	}
	l := NewLink(m.ids.NextLink(), src, tgt, differentialTypes[m.rng.Intn(len(differentialTypes))]...)
	l.Attrs.Set("step", fmt.Sprint(m.step))
	var err error
	if m.rng.Intn(2) == 0 {
		err = w.g.AddLink(l)
	} else {
		err = w.g.PutLink(l)
	}
	if err != nil {
		t.Fatal(err)
	}
	w.o.addLink(l)
}

// op applies one random operation; hub, when non-zero, is the node most
// link additions start from.
func (m *mutator) op(t *testing.T, w *world, hub NodeID) {
	m.step++
	switch r := m.rng.Intn(20); {
	case r < 3:
		m.addNode(t, w)
	case r < 12:
		if hub != 0 && m.rng.Intn(3) > 0 {
			m.addLink(t, w, hub)
		} else {
			m.addLink(t, w, 0)
		}
	case r < 15: // consolidation: same id and endpoints, one more type
		if ex, ok := m.pickLink(w.g); ok {
			l := NewLink(ex.ID, ex.Src, ex.Tgt, fmt.Sprintf("merged%d", m.step))
			if err := w.g.PutLink(l); err != nil {
				t.Fatal(err)
			}
		}
	case r < 18:
		if l, ok := m.pickLink(w.g); ok {
			w.o.removeLink(l)
			w.g.RemoveLink(l.ID)
		}
	default:
		if id, ok := m.pickNode(w.g); ok && id != hub {
			w.o.removeNode(w.g, id)
			w.g.RemoveNode(id)
		}
	}
}

// frozen records a world's adjacency reads so a later check can assert
// they did not change.
type frozen struct {
	w        world
	out, in  map[NodeID][]*Link
	linkText map[LinkID]string
}

func freeze(w world) frozen {
	f := frozen{w: w, out: map[NodeID][]*Link{}, in: map[NodeID][]*Link{}, linkText: map[LinkID]string{}}
	for _, id := range w.g.NodeIDs() {
		f.out[id] = slices.Clone(w.g.Out(id))
		f.in[id] = slices.Clone(w.g.In(id))
	}
	for _, l := range w.g.Links() {
		f.linkText[l.ID] = l.String()
	}
	return f
}

func (f frozen) check(t *testing.T, when string) {
	t.Helper()
	for id, want := range f.out {
		if err := sameLinks(f.w.g.Out(id), want); err != nil {
			t.Fatalf("%s: older snapshot's Out(%d) changed: %v", when, id, err)
		}
		if err := sameLinks(f.w.g.In(id), f.in[id]); err != nil {
			t.Fatalf("%s: older snapshot's In(%d) changed: %v", when, id, err)
		}
	}
	for _, l := range f.w.g.Links() {
		if l.String() != f.linkText[l.ID] {
			t.Fatalf("%s: older snapshot's link %d changed: %v", when, l.ID, l)
		}
	}
	f.w.check(t, when+" (older snapshot)")
}

// TestAdjacencyDifferential checks the stored adjacency lists against the
// id-list oracle over seeded random mutation sequences: adds, PutLink
// consolidations, removals, bulk windows that touch one node repeatedly,
// a ShallowClone taken mid-window with both sides mutated afterwards,
// large ApplyAll batches, a deep Clone whose links are then changed, and
// a checkpoint round trip. Older snapshots must read what they read
// before.
func TestAdjacencyDifferential(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		m := &mutator{rng: rand.New(rand.NewSource(seed)), ids: NewIDSource(0, 0)}
		w := world{g: New(), o: newAdjacencyOracle()}
		for i := 0; i < 12; i++ {
			m.addNode(t, &w)
		}
		for i := 0; i < 20; i++ {
			m.op(t, &w, 0)
		}
		w.check(t, fmt.Sprintf("seed %d: persistent ops", seed))
		old := freeze(w.snapshot())

		// A bulk window hammering one hub node, with a snapshot taken
		// mid-window; both sides keep mutating.
		hub := m.addNode(t, &w)
		w.g.BeginBulk()
		for i := 0; i < 15; i++ {
			m.op(t, &w, hub)
		}
		w.check(t, fmt.Sprintf("seed %d: mid-window", seed))
		other := w.snapshot() // seals the window
		midFrozen := freeze(other.snapshot())
		w.g.BeginBulk()
		other.g.BeginBulk()
		for i := 0; i < 15; i++ {
			m.op(t, &w, hub)
			m.op(t, &other, hub)
		}
		w.g.EndBulk()
		other.g.EndBulk()
		w.check(t, fmt.Sprintf("seed %d: after bulk window", seed))
		other.check(t, fmt.Sprintf("seed %d: mid-window snapshot, mutated", seed))
		midFrozen.check(t, fmt.Sprintf("seed %d: mid-window snapshot", seed))

		// A batch large enough for ApplyAll's bulk path.
		var muts []Mutation
		for i := 0; i < BulkApplyThreshold; i++ {
			src := hub
			if i%3 == 0 {
				src, _ = m.pickNode(w.g)
			}
			tgt, _ := m.pickNode(w.g)
			l := NewLink(m.ids.NextLink(), src, tgt, TypeAct, SubtypeTag)
			muts = append(muts, Mutation{Kind: MutAddLink, Link: l})
		}
		if err := w.g.ApplyAll(muts); err != nil {
			t.Fatal(err)
		}
		for _, mu := range muts {
			w.o.addLink(mu.Link)
		}
		w.check(t, fmt.Sprintf("seed %d: ApplyAll", seed))

		// Deep clone: its lists hold its own links, so a change to a
		// cloned link reads back through Out; the origin is untouched.
		before := freeze(w.snapshot())
		c := world{g: w.g.Clone(), o: w.o}
		c.check(t, fmt.Sprintf("seed %d: deep clone", seed))
		if l, ok := m.pickLink(c.g); ok {
			l.Attrs.Set("changed", "yes") // the clone is private to this test
			found := false
			for _, ol := range c.g.Out(l.Src) {
				found = found || (ol == l && ol.Attrs.Get("changed") == "yes")
			}
			if !found {
				t.Fatalf("seed %d: clone's Out(%d) does not show the changed link %d", seed, l.Src, l.ID)
			}
			if w.g.Link(l.ID).Attrs.Get("changed") != "" {
				t.Fatalf("seed %d: changing a cloned link changed the origin", seed)
			}
		}
		before.check(t, fmt.Sprintf("seed %d: origin of deep clone", seed))

		// Checkpoint round trip: adjacency is rebuilt on load.
		data := NewCkptWriter().AppendCheckpoint(nil, w.g)
		loaded, err := NewCkptReader().Apply(data)
		if err != nil {
			t.Fatal(err)
		}
		lw := world{g: loaded, o: w.o}
		lw.check(t, fmt.Sprintf("seed %d: checkpoint load", seed))
		for i := 0; i < 10; i++ {
			m.op(t, &lw, 0)
		}
		lw.check(t, fmt.Sprintf("seed %d: mutated after load", seed))

		old.check(t, fmt.Sprintf("seed %d: end", seed))
	}
}

// TestAdjacencyReadsAllocateNothing: Out and In return the stored slice.
func TestAdjacencyReadsAllocateNothing(t *testing.T) {
	g := bulkTestGraph(40, 20)
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		for id := NodeID(1); id <= 60; id++ {
			n += len(g.Out(id)) + len(g.In(id))
		}
	})
	if allocs != 0 || n == 0 {
		t.Fatalf("%v allocations reading %d adjacency entries, want 0", allocs, n)
	}
}

// TestInternedTypesAddType: links built with a common type tuple share
// one table slice, and AddType on one of them copies instead of writing
// into the slice the others hold.
func TestInternedTypesAddType(t *testing.T) {
	a := NewLink(1, 1, 2, TypeAct, SubtypeTag)
	b := NewLink(2, 1, 3, TypeAct, SubtypeTag)
	c := a.Clone()
	if &a.Types[0] != &b.Types[0] || &c.Types[0] != &a.Types[0] {
		t.Fatal("links with the {act,tag} tuple do not share the table slice")
	}
	a.AddType("extra")
	if !slices.Equal(a.Types, []string{TypeAct, SubtypeTag, "extra"}) {
		t.Fatalf("a.Types = %v", a.Types)
	}
	for _, l := range []*Link{b, c, NewLink(3, 1, 2, TypeAct, SubtypeTag)} {
		if !slices.Equal(l.Types, []string{TypeAct, SubtypeTag}) || len(l.Types) != cap(l.Types) {
			t.Fatalf("link %d types %v (cap %d) changed by another link's AddType", l.ID, l.Types, cap(l.Types))
		}
	}
	n := NewNode(1, TypeUser)
	m := NewNode(2, TypeUser)
	m.AddType("traveler")
	if !slices.Equal(n.Types, []string{TypeUser}) || !slices.Equal(NewNode(3, TypeUser).Types, []string{TypeUser}) {
		t.Fatalf("node types %v changed by another node's AddType", n.Types)
	}
	// Decoded elements share the table too.
	got, _, err := DecodeLinkBin(AppendLinkBin(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if &got.Types[0] != &b.Types[0] {
		t.Fatal("a decoded {act,tag} link does not share the table slice")
	}
}
