// Package graph implements the social content graph data model of
// SocialScope (CIDR 2009, Section 4): a logical graph whose nodes represent
// physical and abstract entities (users, items, topics, groups) and whose
// links represent connections and activities between them (friendship,
// tagging, reviews, derived matches).
//
// Nodes and links carry schema-less, multi-valued structural attributes,
// including a mandatory multi-valued "type" attribute. The package provides
// the storage primitives that the algebra in internal/core manipulates:
// id-addressed nodes and links, adjacency, induced subgraphs, deterministic
// iteration order, and consolidation of nodes and links by id.
package graph

import "slices"

// Basic node types from the paper's evolving catalog (Section 4). The typing
// system is open: any string is a legal type, and a node or link may carry
// several. These constants cover the types the paper names explicitly.
const (
	TypeUser  = "user"
	TypeItem  = "item"
	TypeTopic = "topic"
	TypeGroup = "group"
)

// Basic link types from the paper's catalog: connect (e.g. friend),
// act (e.g. tag, review, click, visit), match (derived similarity), and
// belong (membership in a topic or group).
const (
	TypeConnect = "connect"
	TypeAct     = "act"
	TypeMatch   = "match"
	TypeBelong  = "belong"
)

// Common subtypes used throughout the paper's examples. They always appear
// alongside a basic type, e.g. type='connect, friend'.
const (
	SubtypeFriend  = "friend"
	SubtypeContact = "contact"
	SubtypeTag     = "tag"
	SubtypeReview  = "review"
	SubtypeClick   = "click"
	SubtypeVisit   = "visit"
	SubtypeRating  = "rating"
)

// typeTuples are the type sets the paper's travel vocabulary repeats on
// nearly every element. NewNode, NewLink, the two Clones and the binary
// decoders share these slices instead of allocating a copy per element.
// The table is fixed: it never grows and needs no lock. Sharing is safe
// because each slice has len == cap and nothing writes Types by index, so
// AddType's append copies instead of writing into the table.
var typeTuples = [...][]string{
	{TypeAct, SubtypeVisit},
	{TypeAct, SubtypeTag},
	{TypeAct, SubtypeReview},
	{TypeConnect, SubtypeFriend},
	{TypeUser},
	{TypeItem, "destination"},
	{TypeItem, "url"},
}

// sharedTypes returns the table's slice equal to ts, or nil.
func sharedTypes(ts []string) []string {
	for _, t := range typeTuples {
		if slices.Equal(t, ts) {
			return t
		}
	}
	return nil
}

// internTypes returns the table's slice equal to ts, or a fresh copy.
func internTypes(ts []string) []string {
	if t := sharedTypes(ts); t != nil {
		return t
	}
	return append([]string(nil), ts...)
}

// NodeID identifies a node within a social content site's id space.
type NodeID int64

// LinkID identifies a link within a social content site's id space.
type LinkID int64

// Direction selects one endpoint of a link. The algebra's directional
// conditions (δ in Definitions 5 and 6) and aggregation group-by constraints
// (d in Definition 9) are expressed in terms of Direction.
type Direction uint8

const (
	// Src selects the source endpoint of a link.
	Src Direction = iota
	// Tgt selects the target endpoint of a link.
	Tgt
)

// Opposite returns the other endpoint selector. The composition operator
// uses it to pick the surviving endpoints of a composed link (Definition 5
// refers to it as delta-bar).
func (d Direction) Opposite() Direction {
	if d == Src {
		return Tgt
	}
	return Src
}

// String returns "src" or "tgt", matching the paper's notation.
func (d Direction) String() string {
	if d == Src {
		return "src"
	}
	return "tgt"
}

// End returns the node id at direction d of the given endpoints.
func (d Direction) End(src, tgt NodeID) NodeID {
	if d == Src {
		return src
	}
	return tgt
}
