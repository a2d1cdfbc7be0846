package graph

import (
	"slices"
	"strconv"
	"strings"
)

// Attrs holds the schema-less, multi-valued structural attributes of a node
// or link. The paper's satisfaction rule (Section 5.1) treats an attribute's
// values as a set: a condition att=v1,...,vk is satisfied when the stored
// value set is a superset of {v1,...,vk}. Values are kept in insertion order
// but compared as sets.
//
// Memory layout: one slice of {key, values} entries sorted by key, each
// entry's values in insertion order. An element without attributes holds
// a nil slice and allocates nothing; one with k keys holds one k-entry
// array plus one values array per key. Lookups binary-search the keys.
//
// The arrays are never written once published: every mutator builds
// fresh ones and swaps them in. Copying an Attrs value therefore yields an
// independent value, Clone is free, and a mutator never appends into a
// values slice another copy shares. The zero value is an empty set of
// attributes, ready to use.
type Attrs struct {
	kv []attrEntry
}

type attrEntry struct {
	key    string
	values []string
}

// NewAttrs builds an attribute set from alternating key/value pairs.
// Repeated keys accumulate multiple values. It panics on an odd number of
// arguments, which is always a programming error, never data-dependent.
func NewAttrs(kv ...string) Attrs {
	if len(kv)%2 != 0 {
		panic("graph.NewAttrs: odd number of key/value arguments")
	}
	if len(kv) == 0 {
		return Attrs{}
	}
	// The arrays are private until returned, so they grow in place.
	a := Attrs{make([]attrEntry, 0, len(kv)/2)}
	for i := 0; i < len(kv); i += 2 {
		k, v := kv[i], kv[i+1]
		j, ok := a.find(k)
		switch {
		case !ok:
			a.kv = slices.Insert(a.kv, j, attrEntry{k, []string{v}})
		case !slices.Contains(a.kv[j].values, v):
			a.kv[j].values = append(a.kv[j].values, v)
		}
	}
	a.kv = slices.Clip(a.kv)
	return a
}

// AttrsFromMap builds an attribute set from a key → values map, the shape
// of the JSON encodings. The value slices are kept, not copied: the caller
// hands them over.
func AttrsFromMap(m map[string][]string) Attrs {
	if len(m) == 0 {
		return Attrs{}
	}
	kv := make([]attrEntry, 0, len(m))
	for k, vs := range m {
		kv = append(kv, attrEntry{k, vs})
	}
	slices.SortFunc(kv, func(x, y attrEntry) int { return strings.Compare(x.key, y.key) })
	return Attrs{kv}
}

// Map returns the attributes as a fresh key → values map (nil when there
// are none), the shape of the JSON encodings. The value slices are the
// stored ones; callers must not mutate them.
func (a Attrs) Map() map[string][]string {
	if len(a.kv) == 0 {
		return nil
	}
	m := make(map[string][]string, len(a.kv))
	for _, e := range a.kv {
		m[e.key] = e.values
	}
	return m
}

// find returns the index of key, or where it would be inserted.
func (a Attrs) find(key string) (int, bool) {
	return slices.BinarySearchFunc(a.kv, key, func(e attrEntry, k string) int { return strings.Compare(e.key, k) })
}

// Get returns the first value of the attribute, or "" if absent.
func (a Attrs) Get(key string) string {
	vs := a.All(key)
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// All returns every value of the attribute (possibly nil). The returned
// slice is the stored slice; callers must not mutate it.
func (a Attrs) All(key string) []string {
	if i, ok := a.find(key); ok {
		return a.kv[i].values
	}
	return nil
}

// put stores values under key in a fresh entry array.
func (a *Attrs) put(key string, values []string) {
	i, ok := a.find(key)
	if ok {
		kv := slices.Clone(a.kv)
		kv[i].values = values
		a.kv = kv
		return
	}
	kv := make([]attrEntry, len(a.kv)+1)
	copy(kv, a.kv[:i])
	kv[i] = attrEntry{key, values}
	copy(kv[i+1:], a.kv[i:])
	a.kv = kv
}

// Set replaces all values of the attribute with the given ones.
func (a *Attrs) Set(key string, values ...string) {
	a.put(key, append([]string(nil), values...))
}

// Add appends a value to the attribute if not already present (set
// semantics on write keep Has/Superset checks linear in practice).
func (a *Attrs) Add(key, value string) {
	vs := a.All(key)
	if slices.Contains(vs, value) {
		return
	}
	a.put(key, append(vs[:len(vs):len(vs)], value))
}

// Has reports whether the attribute contains the given value.
func (a Attrs) Has(key, value string) bool {
	return slices.Contains(a.All(key), value)
}

// Superset reports whether the stored value set for key contains every value
// in want. This is the paper's structural-condition satisfaction rule.
func (a Attrs) Superset(key string, want []string) bool {
	return containsAll(a.All(key), want)
}

func containsAll(vs, want []string) bool {
	for _, w := range want {
		if !slices.Contains(vs, w) {
			return false
		}
	}
	return true
}

// Float parses the first value of the attribute as a float64. ok is false
// when the attribute is absent or not numeric.
func (a Attrs) Float(key string) (v float64, ok bool) {
	s := a.Get(key)
	if s == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// SetFloat stores a numeric value as the attribute's single value.
func (a *Attrs) SetFloat(key string, v float64) {
	a.Set(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// Int parses the first value of the attribute as an int64.
func (a Attrs) Int(key string) (v int64, ok bool) {
	s := a.Get(key)
	if s == "" {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// SetInt stores an integer value as the attribute's single value.
func (a *Attrs) SetInt(key string, v int64) {
	a.Set(key, strconv.FormatInt(v, 10))
}

// Keys returns the attribute names in sorted order, giving deterministic
// iteration for encoding and tests.
func (a Attrs) Keys() []string {
	keys := make([]string, len(a.kv))
	for i, e := range a.kv {
		keys[i] = e.key
	}
	return keys
}

// Clone returns an independent copy. Operators in the algebra clone
// attributes before mutating so that input graphs are never modified;
// since mutators never write a published array, the copy shares them.
func (a Attrs) Clone() Attrs {
	return a
}

// Merge folds the other attribute set into this one with set semantics per
// key. Used when set-theoretic operators consolidate two nodes or links with
// the same id (Definition 3).
func (a *Attrs) Merge(other Attrs) {
	for _, e := range other.kv {
		for _, v := range e.values {
			a.Add(e.key, v)
		}
	}
}

// Equal reports whether two attribute sets hold the same value sets.
func (a Attrs) Equal(other Attrs) bool {
	if len(a.kv) != len(other.kv) {
		return false
	}
	for i, e := range a.kv {
		o := other.kv[i]
		if e.key != o.key || len(e.values) != len(o.values) {
			return false
		}
		if !containsAll(e.values, o.values) || !containsAll(o.values, e.values) {
			return false
		}
	}
	return true
}

// Text concatenates every attribute value into a single lowercase string for
// keyword scoring. The mandatory type attribute participates, matching the
// paper's use of content conditions against whole entities.
func (a Attrs) Text() string {
	var sb strings.Builder
	for _, e := range a.kv {
		for _, v := range e.values {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strings.ToLower(v))
		}
	}
	return sb.String()
}

// String renders the attributes in a stable {k=v1,v2; ...} form.
func (a Attrs) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, e := range a.kv {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(e.key)
		sb.WriteByte('=')
		sb.WriteString(strings.Join(e.values, ","))
	}
	sb.WriteByte('}')
	return sb.String()
}
