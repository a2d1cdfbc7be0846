package core

import (
	"testing"

	"socialscope/internal/graph"
)

func TestStructCondTypeSuperset(t *testing.T) {
	f := travelFixture(t)
	john := f.g.Node(f.john)
	if !Cond("type", "user").satisfies(int64(john.ID), john.Types, john.Attrs) {
		t.Error("type=user should match John")
	}
	if !Cond("type", "user", "traveler").satisfies(int64(john.ID), john.Types, john.Attrs) {
		t.Error("type=user,traveler should match John (superset rule)")
	}
	if Cond("type", "user", "expert").satisfies(int64(john.ID), john.Types, john.Attrs) {
		t.Error("type=user,expert should not match John")
	}
	if !CondOp("type", Ne, "item").satisfies(int64(john.ID), john.Types, john.Attrs) {
		t.Error("type!=item should match John")
	}
}

func TestStructCondID(t *testing.T) {
	f := travelFixture(t)
	john := f.g.Node(f.john)
	if !Cond("id", "101").satisfies(int64(john.ID), john.Types, john.Attrs) {
		t.Error("id=101 should match John")
	}
	if !CondOp("id", Ne, "101").satisfies(102, nil, graph.Attrs{}) {
		t.Error("id!=101 should match 102")
	}
	if CondOp("id", Ne, "101").satisfies(101, nil, graph.Attrs{}) {
		t.Error("id!=101 should not match 101")
	}
	if !CondOp("id", Ge, "200").satisfies(201, nil, graph.Attrs{}) {
		t.Error("id>=200 should match 201")
	}
	if CondOp("id", Lt, "200").satisfies(201, nil, graph.Attrs{}) {
		t.Error("id<200 should not match 201")
	}
	if CondOp("id", Ge, "not-a-number").satisfies(201, nil, graph.Attrs{}) {
		t.Error("malformed numeric comparison should be false")
	}
}

func TestStructCondNumericAttr(t *testing.T) {
	f := travelFixture(t)
	coors := f.g.Node(f.coors) // rating 0.9
	for _, c := range []struct {
		cond StructCond
		want bool
	}{
		{CondOp("rating", Ge, "0.5"), true},
		{CondOp("rating", Gt, "0.9"), false},
		{CondOp("rating", Ge, "0.9"), true},
		{CondOp("rating", Le, "1.0"), true},
		{CondOp("rating", Lt, "0.9"), false},
		{CondOp("missing", Ge, "0"), false},
		{CondOp("name", Ge, "1"), false}, // non-numeric attr
	} {
		if got := c.cond.satisfies(int64(coors.ID), coors.Types, coors.Attrs); got != c.want {
			t.Errorf("%v on Coors = %v, want %v", c.cond, got, c.want)
		}
	}
}

func TestStructCondAttrEquality(t *testing.T) {
	f := travelFixture(t)
	coors := f.g.Node(f.coors)
	if !Cond("city", "Denver").satisfies(int64(coors.ID), coors.Types, coors.Attrs) {
		t.Error("city=Denver should match")
	}
	if Cond("city", "Paris").satisfies(int64(coors.ID), coors.Types, coors.Attrs) {
		t.Error("city=Paris should not match")
	}
	if !CondOp("city", Ne, "Paris").satisfies(int64(coors.ID), coors.Types, coors.Attrs) {
		t.Error("city!=Paris should match")
	}
}

func TestConditionConjunction(t *testing.T) {
	f := travelFixture(t)
	c := NewCondition(Cond("type", "destination"), Cond("city", "Denver"))
	if !c.SatisfiedByNode(f.g.Node(f.coors)) {
		t.Error("Coors should satisfy destination ∧ Denver")
	}
	if c.SatisfiedByNode(f.g.Node(f.gate)) {
		t.Error("Golden Gate should not satisfy Denver")
	}
	if c.SatisfiedByNode(f.g.Node(f.john)) {
		t.Error("John should not satisfy destination")
	}
}

func TestConditionOnLinks(t *testing.T) {
	f := travelFixture(t)
	c := NewCondition(Cond("type", graph.SubtypeVisit))
	if !c.SatisfiedByLink(f.g.Link(f.vAnnCoors)) {
		t.Error("visit link should satisfy type=visit")
	}
	if c.SatisfiedByLink(f.g.Link(f.fJohnAnn)) {
		t.Error("friend link should not satisfy type=visit")
	}
}

func TestConditionEmptyAndString(t *testing.T) {
	c := Condition{}
	if !c.IsEmpty() {
		t.Error("empty condition should report empty")
	}
	c2 := NewCondition(Cond("type", "city")).WithKeywords("Denver attractions")
	if c2.IsEmpty() {
		t.Error("non-empty condition reported empty")
	}
	want := "{type=city, 'denver attractions'}"
	if got := c2.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := CondOp("rating", Ge, "0.5").String(); got != "rating>=0.5" {
		t.Errorf("StructCond String = %q", got)
	}
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{Eq: "=", Ne: "!=", Gt: ">", Ge: ">=", Lt: "<", Le: "<="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("Op %d String = %q, want %q", op, op.String(), want)
		}
	}
	if Op(99).String() != "?" {
		t.Error("unknown op should render ?")
	}
}
