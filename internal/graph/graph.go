package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"socialscope/internal/persist"
)

// Common errors returned by graph mutation methods.
var (
	ErrDuplicateNode  = errors.New("graph: node id already present")
	ErrDuplicateLink  = errors.New("graph: link id already present")
	ErrMissingNode    = errors.New("graph: node id not present")
	ErrMissingEnd     = errors.New("graph: link endpoint not present")
	ErrNilElement     = errors.New("graph: nil node or link")
	ErrEndpointChange = errors.New("graph: consolidated link has different endpoints")
)

// Graph is an instance of a social content site: a set of id-addressed nodes
// and links with adjacency indexes. A Graph may be a "null graph" in the
// paper's sense — nodes with no links — which node selection produces.
//
// Storage is persistent (structurally shared): the node, link and adjacency
// maps are copy-on-write tries, and adjacency lists are immutable slices of
// the snapshot's own *Link values, ordered by ascending link id, with
// len == cap. Every write operation rebinds the Graph's own map headers and
// never modifies a trie node or slice another Graph can reach, which makes
// ShallowClone an O(1) snapshot: a clone and its origin share all storage,
// and either side can keep mutating without the other observing a thing —
// the RCU discipline the live engine's Apply/Search concurrency is built on.
//
// Graphs are not safe for concurrent mutation; concurrent reads — including
// reads of an earlier ShallowClone while a successor mutates — are safe.
type Graph struct {
	nodes persist.Map[NodeID, *Node]
	links persist.Map[LinkID, *Link]
	out   persist.Map[NodeID, []*Link]
	in    persist.Map[NodeID, []*Link]
	// maxNode and maxLink are monotonic high-water marks over every id the
	// graph has ever held. They survive clones and removals, so IDSource
	// allocation never reuses a retracted id (which would alias unrelated
	// elements in incremental index deltas and changelog replays).
	maxNode NodeID
	maxLink LinkID
	// recorder, when set via SetRecorder, observes every successful write
	// operation as a Mutation. Clones (Clone, ShallowClone, induced
	// subgraphs) start with no recorder.
	recorder func(Mutation)
	// bulk, when non-nil, is the ownership token of an open bulk-mutation
	// window (BeginBulk): map writes route through the persist transient
	// path, mutating trie nodes this window created in place instead of
	// path-copying per write. Snapshot safety is preserved — nodes shared
	// with any earlier snapshot are copied on first touch — and taking a
	// snapshot (ShallowClone, Clone) seals the window first.
	bulk *persist.Edit
	// ownOut and ownIn hold the nodes whose out and in lists the open bulk
	// window allocated. The window may insert into those lists in place;
	// EndBulk copies any of them with spare capacity to exact size, so no
	// published list has spare capacity and a caller's append never writes
	// into a shared array.
	ownOut, ownIn map[NodeID]struct{}
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: persist.NewIntMap[NodeID, *Node](),
		links: persist.NewIntMap[LinkID, *Link](),
		out:   persist.NewIntMap[NodeID, []*Link](),
		in:    persist.NewIntMap[NodeID, []*Link](),
	}
}

// BeginBulk opens a bulk-mutation window: until the window closes, write
// operations may mutate freshly created trie nodes in place (persist
// transients) instead of copy-on-writing one path per write, cutting the
// allocation cost of bulk construction — cold loads, Clone/Extract,
// induced subgraphs, large ApplyAll batches — by an order of magnitude.
//
// Correctness is unchanged: storage shared with any Graph that existed
// before the window opened is still copied before the first write, so
// earlier snapshots never observe a thing. The graph itself remains
// readable mid-window. The contract is the transient one: a bulk window
// is single-goroutine, and the graph must not be shared with concurrent
// readers until the window closes (EndBulk, or implicitly by taking a
// ShallowClone/Clone snapshot, which seals first). Idempotent: an
// already-open window is kept.
//
// Adjacency lists follow an ownership rule. The first time a window
// inserts into a node's list it makes one exact-size copy, as outside a
// window, and the window then owns that copy: later inserts into the same
// list grow it in place. Mid-window, a slice Out or In returned earlier
// may therefore change on the next write; once the window closes, every
// list is immutable again.
func (g *Graph) BeginBulk() {
	if g.bulk == nil {
		g.bulk = persist.NewEdit()
		g.ownOut, g.ownIn = make(map[NodeID]struct{}), make(map[NodeID]struct{})
	}
}

// EndBulk closes the bulk-mutation window. After it returns no write can
// mutate previously written storage in place, so the graph may be
// published to concurrent readers under the usual snapshot discipline.
//
// On a graph with no open window this is a pure read (no field write):
// concurrent readers may freely take snapshots of a published — hence
// sealed — graph, where an unconditional nil-store would be a data race.
// An open window already requires single-goroutine ownership, so the
// closing store is race-free by contract.
func (g *Graph) EndBulk() {
	if g.bulk != nil {
		g.out = g.sealOwned(g.out, g.ownOut)
		g.in = g.sealOwned(g.in, g.ownIn)
		g.bulk, g.ownOut, g.ownIn = nil, nil, nil
	}
}

// sealOwned copies every window-owned list of m that has spare capacity
// to exact size.
func (g *Graph) sealOwned(m persist.Map[NodeID, []*Link], own map[NodeID]struct{}) persist.Map[NodeID, []*Link] {
	for id := range own {
		if ls := m.At(id); cap(ls) > len(ls) {
			m = m.SetWith(g.bulk, id, append(make([]*Link, 0, len(ls)), ls...))
		}
	}
	return m
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes.Len() }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return g.links.Len() }

// Node returns the node with the given id, or nil. The pointer is the
// node stored in the published snapshot, not a copy.
//
//ss:immutable — Clone before mutating.
func (g *Graph) Node(id NodeID) *Node { return g.nodes.At(id) }

// Link returns the link with the given id, or nil. The pointer is the
// link stored in the published snapshot, not a copy.
//
//ss:immutable — Clone before mutating.
func (g *Graph) Link(id LinkID) *Link { return g.links.At(id) }

// HasNode reports whether the node id is present.
func (g *Graph) HasNode(id NodeID) bool { return g.nodes.Has(id) }

// HasLink reports whether the link id is present.
func (g *Graph) HasLink(id LinkID) bool { return g.links.Has(id) }

// noteNodeID and noteLinkID advance the high-water marks.
func (g *Graph) noteNodeID(id NodeID) {
	if id > g.maxNode {
		g.maxNode = id
	}
}

func (g *Graph) noteLinkID(id LinkID) {
	if id > g.maxLink {
		g.maxLink = id
	}
}

// AddNode inserts a node. It fails on nil input or duplicate id.
func (g *Graph) AddNode(n *Node) error {
	if n == nil {
		return ErrNilElement
	}
	if g.nodes.Has(n.ID) {
		return fmt.Errorf("%w: %d", ErrDuplicateNode, n.ID)
	}
	g.nodes = g.nodes.SetWith(g.bulk, n.ID, n)
	g.noteNodeID(n.ID)
	g.emitNode(MutAddNode, n)
	return nil
}

// PutNode inserts the node, consolidating (merging) with any existing node
// of the same id. This is the consolidation rule of Definition 3. The
// resident node value is never modified: the merge happens on a clone
// that is swapped in, so snapshots sharing the old value keep it intact.
func (g *Graph) PutNode(n *Node) {
	if n == nil {
		return
	}
	if ex, ok := g.nodes.Get(n.ID); ok {
		merged := ex.Clone()
		merged.Merge(n)
		g.nodes = g.nodes.SetWith(g.bulk, n.ID, merged)
		g.emitNode(MutPutNode, merged)
		return
	}
	g.nodes = g.nodes.SetWith(g.bulk, n.ID, n)
	g.noteNodeID(n.ID)
	g.emitNode(MutAddNode, n)
}

// AddLink inserts a link. Both endpoints must already be present; this keeps
// every Graph a well-formed subgraph (links induce their endpoints).
func (g *Graph) AddLink(l *Link) error {
	if l == nil {
		return ErrNilElement
	}
	if g.links.Has(l.ID) {
		return fmt.Errorf("%w: %d", ErrDuplicateLink, l.ID)
	}
	if !g.HasNode(l.Src) {
		return fmt.Errorf("%w: src %d of link %d", ErrMissingEnd, l.Src, l.ID)
	}
	if !g.HasNode(l.Tgt) {
		return fmt.Errorf("%w: tgt %d of link %d", ErrMissingEnd, l.Tgt, l.ID)
	}
	g.links = g.links.SetWith(g.bulk, l.ID, l)
	g.out = g.insertAdj(g.out, g.ownOut, l.Src, l)
	g.in = g.insertAdj(g.in, g.ownIn, l.Tgt, l)
	g.noteLinkID(l.ID)
	g.emitLink(MutAddLink, l)
	return nil
}

// linkIndex returns the position of id in an ascending list, or the
// position where it would be inserted, and whether it is present.
func linkIndex(ls []*Link, id LinkID) (int, bool) {
	if n := len(ls); n == 0 || ls[n-1].ID < id {
		return n, false // the common case: ids arrive in ascending order
	}
	return slices.BinarySearchFunc(ls, id, func(l *Link, id LinkID) int { return cmp.Compare(l.ID, id) })
}

// insertAdj returns m with l inserted into node id's list. Outside a bulk
// window, and on a window's first touch of the list, it builds a fresh
// exact-size slice; a list the window already owns grows in place.
func (g *Graph) insertAdj(m persist.Map[NodeID, []*Link], own map[NodeID]struct{}, id NodeID, l *Link) persist.Map[NodeID, []*Link] {
	ls := m.At(id)
	i, _ := linkIndex(ls, l.ID)
	if g.bulk != nil {
		if _, ok := own[id]; ok {
			return m.SetWith(g.bulk, id, slices.Insert(ls, i, l))
		}
		own[id] = struct{}{}
	}
	fresh := make([]*Link, len(ls)+1)
	copy(fresh, ls[:i])
	fresh[i] = l
	copy(fresh[i+1:], ls[i:])
	return m.SetWith(g.bulk, id, fresh)
}

// removeAdj returns m with link lid dropped from node id's list, as a
// fresh exact-size slice, and the key dropped once the list drains so
// empty slices never accumulate. It never writes the old slice, so a
// caller may keep ranging over it.
func (g *Graph) removeAdj(m persist.Map[NodeID, []*Link], id NodeID, lid LinkID) persist.Map[NodeID, []*Link] {
	ls := m.At(id)
	i, ok := linkIndex(ls, lid)
	switch {
	case !ok:
		return m
	case len(ls) == 1:
		return m.DeleteWith(g.bulk, id)
	}
	fresh := make([]*Link, 0, len(ls)-1)
	fresh = append(append(fresh, ls[:i]...), ls[i+1:]...)
	return m.SetWith(g.bulk, id, fresh)
}

// replaceAdj returns m with l swapped in for the link of the same id in
// node id's list, in a fresh exact-size copy.
func (g *Graph) replaceAdj(m persist.Map[NodeID, []*Link], id NodeID, l *Link) persist.Map[NodeID, []*Link] {
	ls := m.At(id)
	i, ok := linkIndex(ls, l.ID)
	if !ok {
		return m
	}
	fresh := append(make([]*Link, 0, len(ls)), ls...)
	fresh[i] = l
	return m.SetWith(g.bulk, id, fresh)
}

// PutLink inserts the link, consolidating with any existing link of the same
// id. Consolidation with different endpoints is an error. Missing endpoint
// nodes are an error, as with AddLink. Like PutNode, the resident link
// value is never modified — the merge is clone-and-swap, and the merged
// link replaces the old one in both endpoint lists — so snapshots keep
// their view.
func (g *Graph) PutLink(l *Link) error {
	if l == nil {
		return ErrNilElement
	}
	if ex, ok := g.links.Get(l.ID); ok {
		if ex.Src != l.Src || ex.Tgt != l.Tgt {
			return fmt.Errorf("%w: link %d", ErrEndpointChange, l.ID)
		}
		merged := ex.Clone()
		merged.Merge(l)
		g.links = g.links.SetWith(g.bulk, l.ID, merged)
		g.out = g.replaceAdj(g.out, l.Src, merged)
		g.in = g.replaceAdj(g.in, l.Tgt, merged)
		if g.recorder != nil {
			g.recorder(Mutation{Kind: MutPutLink, Link: merged.Clone(), Prev: ex.Clone()})
		}
		return nil
	}
	return g.AddLink(l)
}

// RemoveLink deletes a link (no-op when absent). Endpoint nodes remain.
// The high-water id marks do not retreat: the retracted id stays burned.
func (g *Graph) RemoveLink(id LinkID) {
	l, ok := g.links.Get(id)
	if !ok {
		return
	}
	g.links = g.links.DeleteWith(g.bulk, id)
	g.out = g.removeAdj(g.out, l.Src, id)
	g.in = g.removeAdj(g.in, l.Tgt, id)
	g.emitLink(MutRemoveLink, l)
}

// RemoveNode deletes a node and every link incident on it.
func (g *Graph) RemoveNode(id NodeID) {
	n, ok := g.nodes.Get(id)
	if !ok {
		return
	}
	// RemoveLink never writes a list in place, so ranging over the lists
	// read here is safe while it replaces them. A self-loop sits in both
	// lists; its second removal is a no-op.
	for _, l := range g.out.At(id) {
		g.RemoveLink(l.ID)
	}
	for _, l := range g.in.At(id) {
		g.RemoveLink(l.ID)
	}
	g.nodes = g.nodes.DeleteWith(g.bulk, id)
	g.out = g.out.DeleteWith(g.bulk, id)
	g.in = g.in.DeleteWith(g.bulk, id)
	g.emitNode(MutRemoveNode, n)
}

// NodeIDs returns all node ids in ascending order.
func (g *Graph) NodeIDs() []NodeID {
	ids := g.nodes.Keys()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// LinkIDs returns all link ids in ascending order.
func (g *Graph) LinkIDs() []LinkID {
	ids := g.links.Keys()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Nodes returns all nodes ordered by ascending id. The slice is fresh
// but the elements are the snapshot's own nodes.
//
//ss:immutable — Clone elements before mutating them.
func (g *Graph) Nodes() []*Node {
	ns := make([]*Node, 0, g.nodes.Len())
	g.nodes.Range(func(_ NodeID, n *Node) bool {
		ns = append(ns, n)
		return true
	})
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	return ns
}

// Links returns all links ordered by ascending id. The slice is fresh
// but the elements are the snapshot's own links.
//
//ss:immutable — Clone elements before mutating them.
func (g *Graph) Links() []*Link {
	ls := make([]*Link, 0, g.links.Len())
	g.links.Range(func(_ LinkID, l *Link) bool {
		ls = append(ls, l)
		return true
	})
	sort.Slice(ls, func(i, j int) bool { return ls[i].ID < ls[j].ID })
	return ls
}

// Out returns the links whose source is the given node, ordered by id.
// It is O(1) and allocates nothing: the result is the snapshot's own
// stored slice, not a copy, and its elements are the snapshot's own links.
// It has len == cap, so a caller's append copies instead of writing into
// the shared array.
//
//ss:immutable — Clone elements before mutating them; never write the slice.
func (g *Graph) Out(id NodeID) []*Link {
	ls := g.out.At(id)
	return ls[:len(ls):len(ls)]
}

// In returns the links whose target is the given node, ordered by id.
// Like Out, it is O(1), allocates nothing and returns the snapshot's own
// stored slice, with len == cap.
//
//ss:immutable — Clone elements before mutating them; never write the slice.
func (g *Graph) In(id NodeID) []*Link {
	ls := g.in.At(id)
	return ls[:len(ls):len(ls)]
}

// Incident returns all links touching the node (out then in), ordered by id
// within each direction. The slice is fresh, sized exactly; the elements
// are the snapshot's own links.
//
//ss:immutable — Clone elements before mutating them.
func (g *Graph) Incident(id NodeID) []*Link {
	out, in := g.out.At(id), g.in.At(id)
	return append(append(make([]*Link, 0, len(out)+len(in)), out...), in...)
}

// OutDegree returns the number of outgoing links of the node.
func (g *Graph) OutDegree(id NodeID) int { return len(g.out.At(id)) }

// InDegree returns the number of incoming links of the node.
func (g *Graph) InDegree(id NodeID) int { return len(g.in.At(id)) }

// Neighbors returns the distinct node ids adjacent to the node (either
// direction), in ascending order.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	seen := make(map[NodeID]struct{})
	for _, l := range g.out.At(id) {
		seen[l.Tgt] = struct{}{}
	}
	for _, l := range g.in.At(id) {
		seen[l.Src] = struct{}{}
	}
	delete(seen, id)
	ids := make([]NodeID, 0, len(seen))
	for nid := range seen {
		ids = append(ids, nid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Clone returns a deep copy of the graph: node and link values are cloned,
// and the adjacency lists are rebuilt over the cloned links, so a caller
// that changes a cloned link reads the change back through Out and In. The
// rewrite runs in a bulk window: the clone's tries are rebuilt with
// transient in-place writes (one claim per trie node instead of one path
// copy per element), sealed before the clone is returned.
func (g *Graph) Clone() *Graph {
	c := g.ShallowClone()
	c.BeginBulk()
	g.nodes.Range(func(id NodeID, n *Node) bool {
		c.nodes = c.nodes.SetWith(c.bulk, id, n.Clone())
		return true
	})
	ls := make([]*Link, 0, g.links.Len())
	g.links.Range(func(id LinkID, l *Link) bool {
		cl := l.Clone()
		c.links = c.links.SetWith(c.bulk, id, cl)
		ls = append(ls, cl)
		return true
	})
	c.setAdjacency(ls) // every list in c.out and c.in is replaced
	c.EndBulk()
	return c
}

// ShallowClone returns a snapshot of the graph that shares all storage —
// node and link values, and the persistent maps holding them — with the
// original. O(1): it copies only the Graph header. Either side may keep
// mutating; copy-on-write guarantees the other never observes it.
// Operators that only filter (and never mutate elements) use it to avoid
// deep copies, and Engine.Apply builds its per-batch snapshots on it.
//
// Taking a snapshot seals any open bulk window on the receiver first:
// once two Graphs share storage, neither may mutate it in place.
func (g *Graph) ShallowClone() *Graph {
	g.EndBulk()
	return &Graph{
		nodes:   g.nodes,
		links:   g.links,
		out:     g.out,
		in:      g.in,
		maxNode: g.maxNode,
		maxLink: g.maxLink,
	}
}

// InducedByNodes returns the subgraph of g induced by the given node set:
// those nodes plus every link whose both endpoints are in the set. Node and
// link values are shared with g (callers clone before mutating).
func (g *Graph) InducedByNodes(ids map[NodeID]struct{}) *Graph {
	sub := New()
	sub.BeginBulk()
	for id := range ids {
		if n, ok := g.nodes.Get(id); ok {
			sub.nodes = sub.nodes.SetWith(sub.bulk, id, n)
			sub.noteNodeID(id)
		}
	}
	var kept []*Link
	g.links.Range(func(_ LinkID, l *Link) bool {
		if sub.HasNode(l.Src) && sub.HasNode(l.Tgt) {
			kept = append(kept, l)
		}
		return true
	})
	sub.addInducedLinks(kept)
	sub.EndBulk()
	return sub
}

// InducedByLinks returns the subgraph of g induced by the given link set:
// those links plus precisely the nodes they are incident on (Definition 2's
// "subgraph induced by those links"). Values are shared with g.
func (g *Graph) InducedByLinks(ids map[LinkID]struct{}) *Graph {
	sub := New()
	sub.BeginBulk()
	var kept []*Link
	for lid := range ids {
		l, ok := g.links.Get(lid)
		if !ok {
			continue
		}
		if !sub.HasNode(l.Src) {
			sub.nodes = sub.nodes.SetWith(sub.bulk, l.Src, g.nodes.At(l.Src))
			sub.noteNodeID(l.Src)
		}
		if !sub.HasNode(l.Tgt) {
			sub.nodes = sub.nodes.SetWith(sub.bulk, l.Tgt, g.nodes.At(l.Tgt))
			sub.noteNodeID(l.Tgt)
		}
		kept = append(kept, l)
	}
	sub.addInducedLinks(kept)
	sub.EndBulk()
	return sub
}

// addInducedLinks installs pre-screened links (endpoints already present)
// in bulk, with the adjacency lists assembled by one sort per direction
// (O(L log L)) instead of per-insert slice copying.
func (g *Graph) addInducedLinks(ls []*Link) {
	for _, l := range ls {
		g.links = g.links.SetWith(g.bulk, l.ID, l)
		g.noteLinkID(l.ID)
	}
	g.setAdjacency(ls)
}

// setAdjacency installs the out and in lists of the links ls, which must
// be g's own link values, replacing any lists of their endpoints. Each
// list is an exact-size slice in the ascending-id order every Graph
// maintains.
func (g *Graph) setAdjacency(ls []*Link) {
	g.out = g.groupAdj(g.out, ls, func(l *Link) NodeID { return l.Src })
	g.in = g.groupAdj(g.in, ls, func(l *Link) NodeID { return l.Tgt })
}

func (g *Graph) groupAdj(m persist.Map[NodeID, []*Link], ls []*Link, end func(*Link) NodeID) persist.Map[NodeID, []*Link] {
	byEnd := slices.Clone(ls)
	slices.SortFunc(byEnd, func(a, b *Link) int {
		if c := cmp.Compare(end(a), end(b)); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	for i := 0; i < len(byEnd); {
		j := i + 1
		for j < len(byEnd) && end(byEnd[j]) == end(byEnd[i]) {
			j++
		}
		m = m.SetWith(g.bulk, end(byEnd[i]), append(make([]*Link, 0, j-i), byEnd[i:j]...))
		i = j
	}
	return m
}

// Equal reports whether two graphs contain equal node and link sets.
func (g *Graph) Equal(other *Graph) bool {
	if g.NumNodes() != other.NumNodes() || g.NumLinks() != other.NumLinks() {
		return false
	}
	eq := true
	g.nodes.Range(func(id NodeID, n *Node) bool {
		eq = n.Equal(other.nodes.At(id))
		return eq
	})
	if !eq {
		return false
	}
	g.links.Range(func(id LinkID, l *Link) bool {
		eq = l.Equal(other.links.At(id))
		return eq
	})
	return eq
}

// MaxNodeID returns the node-id high-water mark: the largest node id the
// graph has ever held, O(1). It is monotonic — removals do not lower it —
// and survives ShallowClone/Clone, so ids allocated past it (IDSourceFor)
// never collide with a live id and never resurrect a retracted one.
func (g *Graph) MaxNodeID() NodeID { return g.maxNode }

// MaxLinkID returns the link-id high-water mark (see MaxNodeID).
func (g *Graph) MaxLinkID() LinkID { return g.maxLink }

// Validate checks internal consistency: every link's endpoints exist, the
// adjacency indexes hold the link map's own values, agree with the link
// set, keep ascending id order and, outside a bulk window, have no spare
// capacity, and the id high-water marks bound every present id. It returns
// the first violation.
func (g *Graph) Validate() error {
	var err error
	g.links.Range(func(id LinkID, l *Link) bool {
		switch {
		case l.ID != id:
			err = fmt.Errorf("graph: link stored under id %d has id %d", id, l.ID)
		case !g.HasNode(l.Src) || !g.HasNode(l.Tgt):
			err = fmt.Errorf("%w: link %d (%d->%d)", ErrMissingEnd, id, l.Src, l.Tgt)
		case id > g.maxLink:
			err = fmt.Errorf("graph: link %d above high-water mark %d", id, g.maxLink)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	outCount, err := g.validateAdj("out", g.out, func(l *Link) NodeID { return l.Src })
	if err != nil {
		return err
	}
	inCount, err := g.validateAdj("in", g.in, func(l *Link) NodeID { return l.Tgt })
	if err != nil {
		return err
	}
	if outCount != g.links.Len() || inCount != g.links.Len() {
		return fmt.Errorf("graph: adjacency indexes cover %d/%d links (out/in %d/%d)",
			outCount, g.links.Len(), outCount, inCount)
	}
	g.nodes.Range(func(id NodeID, n *Node) bool {
		switch {
		case n.ID != id:
			err = fmt.Errorf("graph: node stored under id %d has id %d", id, n.ID)
		case id > g.maxNode:
			err = fmt.Errorf("graph: node %d above high-water mark %d", id, g.maxNode)
		}
		return err == nil
	})
	return err
}

// validateAdj checks one adjacency index and returns how many links it
// lists.
func (g *Graph) validateAdj(name string, m persist.Map[NodeID, []*Link], end func(*Link) NodeID) (int, error) {
	count := 0
	var err error
	m.Range(func(id NodeID, ls []*Link) bool {
		if g.bulk == nil && cap(ls) != len(ls) {
			err = fmt.Errorf("graph: %s index for node %d has spare capacity", name, id)
			return false
		}
		for i, l := range ls {
			if l == nil || g.links.At(l.ID) != l || end(l) != id {
				err = fmt.Errorf("graph: %s index for node %d lists a stale link", name, id)
				return false
			}
			if i > 0 && ls[i-1].ID >= l.ID {
				err = fmt.Errorf("graph: %s index for node %d not in ascending order", name, id)
				return false
			}
			count++
		}
		return true
	})
	return count, err
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d links=%d}", g.NumNodes(), g.NumLinks())
}
