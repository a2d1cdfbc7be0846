package graph

import (
	"reflect"
	"testing"
)

func TestNewAttrs(t *testing.T) {
	a := NewAttrs("type", "user", "type", "traveler", "name", "John")
	if got := a.Get("name"); got != "John" {
		t.Errorf("Get(name) = %q, want John", got)
	}
	if got := a.All("type"); !reflect.DeepEqual(got, []string{"user", "traveler"}) {
		t.Errorf("All(type) = %v", got)
	}
}

func TestNewAttrsOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd kv count")
		}
	}()
	NewAttrs("only-key")
}

func TestAttrsAddDeduplicates(t *testing.T) {
	a := Attrs{}
	a.Add("tags", "baseball")
	a.Add("tags", "baseball")
	a.Add("tags", "rockies")
	if got := a.All("tags"); len(got) != 2 {
		t.Errorf("duplicate value stored: %v", got)
	}
}

func TestAttrsSupersetSatisfaction(t *testing.T) {
	// The paper: node satisfies att=v1..vk iff its value set is a superset.
	a := NewAttrs("type", "item", "type", "city", "keywords", "skiing")
	cases := []struct {
		key  string
		want []string
		ok   bool
	}{
		{"type", []string{"city"}, true},
		{"type", []string{"item", "city"}, true},
		{"type", []string{"city", "hotel"}, false},
		{"keywords", []string{"skiing"}, true},
		{"missing", []string{"x"}, false},
		{"type", nil, true}, // empty requirement always satisfied
	}
	for _, c := range cases {
		if got := a.Superset(c.key, c.want); got != c.ok {
			t.Errorf("Superset(%s, %v) = %v, want %v", c.key, c.want, got, c.ok)
		}
	}
}

func TestAttrsNumeric(t *testing.T) {
	a := Attrs{}
	a.SetFloat("rating", 0.5)
	if v, ok := a.Float("rating"); !ok || v != 0.5 {
		t.Errorf("Float(rating) = %v,%v", v, ok)
	}
	a.SetInt("count", 42)
	if v, ok := a.Int("count"); !ok || v != 42 {
		t.Errorf("Int(count) = %v,%v", v, ok)
	}
	if _, ok := a.Float("missing"); ok {
		t.Error("Float(missing) reported ok")
	}
	a.Set("junk", "not-a-number")
	if _, ok := a.Float("junk"); ok {
		t.Error("Float(junk) reported ok")
	}
	if _, ok := a.Int("junk"); ok {
		t.Error("Int(junk) reported ok")
	}
}

func TestAttrsCloneIndependence(t *testing.T) {
	a := NewAttrs("k", "v1")
	c := a.Clone()
	c.Add("k", "v2")
	c.Set("new", "x")
	if len(a.All("k")) != 1 || a.Get("new") != "" {
		t.Errorf("clone mutated original: %v", a)
	}
	var empty Attrs
	if len(empty.Clone().Keys()) != 0 {
		t.Error("Clone of empty attrs should be empty")
	}
}

func TestAttrsMerge(t *testing.T) {
	a := NewAttrs("type", "user", "name", "John")
	b := NewAttrs("type", "traveler", "name", "John", "city", "Denver")
	a.Merge(b)
	if !a.Superset("type", []string{"user", "traveler"}) {
		t.Errorf("merge lost types: %v", a)
	}
	if len(a.All("name")) != 1 {
		t.Errorf("merge duplicated name: %v", a.All("name"))
	}
	if a.Get("city") != "Denver" {
		t.Errorf("merge missed new key: %v", a)
	}
}

func TestAttrsEqual(t *testing.T) {
	a := NewAttrs("k", "v1", "k", "v2")
	b := NewAttrs("k", "v2", "k", "v1") // order differs, set equal
	if !a.Equal(b) {
		t.Error("set-equal attrs reported unequal")
	}
	c := NewAttrs("k", "v1")
	if a.Equal(c) {
		t.Error("different value counts reported equal")
	}
	d := NewAttrs("k2", "v1", "k2", "v2")
	if a.Equal(d) {
		t.Error("different keys reported equal")
	}
}

func TestAttrsText(t *testing.T) {
	a := NewAttrs("name", "Denver", "keywords", "Skiing")
	txt := a.Text()
	if txt != "skiing denver" && txt != "denver skiing" {
		// keys iterate sorted: keywords < name
		t.Errorf("Text() = %q", txt)
	}
}

func TestAttrsStringDeterministic(t *testing.T) {
	a := NewAttrs("b", "2", "a", "1")
	if got := a.String(); got != "{a=1; b=2}" {
		t.Errorf("String() = %q", got)
	}
}

func TestAttrsKeysSorted(t *testing.T) {
	var a Attrs
	for _, k := range []string{"zeta", "beta", "alpha", "mu", "beta"} {
		a.Add(k, "v")
	}
	b := NewAttrs("zeta", "v", "beta", "v", "alpha", "v", "mu", "v")
	want := []string{"alpha", "beta", "mu", "zeta"}
	for _, got := range [][]string{a.Keys(), b.Keys(), AttrsFromMap(b.Map()).Keys()} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Keys() = %v, want %v", got, want)
		}
	}
}

func TestAttrsValueInsertionOrder(t *testing.T) {
	a := NewAttrs("k", "c", "k", "a", "k", "b", "k", "a")
	a.Add("k", "0")
	a.Merge(NewAttrs("k", "z", "k", "c"))
	want := []string{"c", "a", "b", "0", "z"}
	if got := a.All("k"); !reflect.DeepEqual(got, want) {
		t.Errorf("All(k) = %v, want %v", got, want)
	}
	a.Set("k", "y", "x")
	if got := a.All("k"); !reflect.DeepEqual(got, []string{"y", "x"}) {
		t.Errorf("after Set, All(k) = %v", got)
	}
}

func TestAttrsEqualAsSets(t *testing.T) {
	var a, b Attrs
	a.Set("k", "v1", "v2", "v3")
	b.Add("k", "v3")
	b.Add("k", "v1")
	b.Add("k", "v2")
	a.Add("other", "x")
	b.Add("other", "x")
	if !a.Equal(b) || !b.Equal(a) {
		t.Errorf("%v and %v hold equal sets", a, b)
	}
	b.Set("k", "v1", "v2", "v4")
	if a.Equal(b) {
		t.Errorf("%v and %v reported equal", a, b)
	}
	if !(Attrs{}).Equal(NewAttrs()) {
		t.Error("empty attrs unequal")
	}
}

// TestBinAttrsDuplicateKeys feeds the checkpoint decoder entries that a
// canonical writer never emits — unsorted and repeated keys — and expects
// what decoding into a map always gave: key order restored, the last
// entry of a repeated key kept.
func TestBinAttrsDuplicateKeys(t *testing.T) {
	var src []byte
	src = append(src, 4)
	for _, e := range []struct {
		k  string
		vs []string
	}{{"b", []string{"first"}}, {"a", []string{"x"}}, {"b", []string{"second", "third"}}, {"a", nil}} {
		src = appendString(src, e.k)
		src = appendStrings(src, e.vs)
	}
	a, n, err := binAttrs(src)
	if err != nil || n != len(src) {
		t.Fatalf("binAttrs: n=%d of %d, err=%v", n, len(src), err)
	}
	if got := a.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("keys %v", got)
	}
	if got := a.All("b"); !reflect.DeepEqual(got, []string{"second", "third"}) {
		t.Errorf("b = %v, want the last entry", got)
	}
	if got := a.All("a"); got != nil {
		t.Errorf("a = %v, want the last (empty) entry", got)
	}
	// Re-encoding is canonical.
	if _, _, err := binAttrs(appendAttrs(nil, a)); err != nil {
		t.Fatal(err)
	}
}

// TestAttrsCopiesIndependent adds values on both sides of a Clone and of a
// plain value copy, including to keys whose values slices the two sides
// shared, and checks neither side sees the other's writes.
func TestAttrsCopiesIndependent(t *testing.T) {
	// Three values: the values array has spare capacity an in-place
	// append would write into.
	orig := NewAttrs("k", "v1", "k", "v2", "k", "v3", "m", "x")
	clone := orig.Clone()
	copied := orig

	orig.Add("k", "from-orig")
	orig.Add("new", "o")
	clone.Add("k", "from-clone")
	clone.Set("m", "y")
	copied.Add("k", "from-copy")
	copied.Merge(NewAttrs("k", "merged"))

	checks := []struct {
		name string
		a    Attrs
		k    []string
		keys []string
	}{
		{"orig", orig, []string{"v1", "v2", "v3", "from-orig"}, []string{"k", "m", "new"}},
		{"clone", clone, []string{"v1", "v2", "v3", "from-clone"}, []string{"k", "m"}},
		{"copy", copied, []string{"v1", "v2", "v3", "from-copy", "merged"}, []string{"k", "m"}},
	}
	for _, c := range checks {
		if got := c.a.All("k"); !reflect.DeepEqual(got, c.k) {
			t.Errorf("%s: All(k) = %v, want %v", c.name, got, c.k)
		}
		if got := c.a.Keys(); !reflect.DeepEqual(got, c.keys) {
			t.Errorf("%s: Keys() = %v, want %v", c.name, got, c.keys)
		}
	}
	if orig.Get("m") != "x" || clone.Get("m") != "y" {
		t.Errorf("Set leaked: orig m=%q clone m=%q", orig.Get("m"), clone.Get("m"))
	}
	// Node and link clones inherit the same independence.
	n := NewNode(1, "user")
	n.Attrs.Add("tags", "a")
	nc := n.Clone()
	nc.Attrs.Add("tags", "b")
	n.Attrs.Add("tags", "c")
	if !reflect.DeepEqual(n.Attrs.All("tags"), []string{"a", "c"}) || !reflect.DeepEqual(nc.Attrs.All("tags"), []string{"a", "b"}) {
		t.Errorf("node clone shared values: %v vs %v", n.Attrs, nc.Attrs)
	}
}
