package catalog

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// employeeCatalog builds the paper's Figure 1 schema: ORG, DEPT, EMP types
// and the Org, Dept, Emp1, Emp2 sets.
func employeeCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	if _, err := c.DefineType("ORG", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "budget", Kind: schema.KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineType("DEPT", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "budget", Kind: schema.KindInt},
		{Name: "org", Kind: schema.KindRef, RefType: "ORG"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineType("EMP", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "age", Kind: schema.KindInt},
		{Name: "salary", Kind: schema.KindInt},
		{Name: "dept", Kind: schema.KindRef, RefType: "DEPT"},
	}); err != nil {
		t.Fatal(err)
	}
	for i, s := range []struct{ name, typ string }{
		{"Org", "ORG"}, {"Dept", "DEPT"}, {"Emp1", "EMP"}, {"Emp2", "EMP"},
	} {
		if _, err := c.CreateSet(s.name, s.typ, pagefile.FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// addLive registers a path and publishes it, the way a Replicate whose build
// succeeded leaves it.
func addLive(c *Catalog, spec PathSpec, strat Strategy, opts ...PathOption) (*Path, error) {
	p, err := c.AddPath(spec, strat, opts...)
	if err != nil {
		return nil, err
	}
	return p, c.Publish(p)
}

func TestDefineTypeAndSets(t *testing.T) {
	c := employeeCatalog(t)
	emp, ok := c.TypeByName("EMP")
	if !ok {
		t.Fatal("EMP not found")
	}
	if got, ok := c.TypeByTag(emp.Tag); !ok || got != emp {
		t.Fatal("TypeByTag mismatch")
	}
	if _, err := c.DefineType("EMP", nil); err == nil {
		t.Fatal("duplicate type accepted")
	}
	if _, err := c.DefineType("X", []schema.Field{{Name: "r", Kind: schema.KindRef, RefType: "NOPE"}}); err == nil {
		t.Fatal("ref to undefined type accepted")
	}
	// Self-referential types are allowed.
	if _, err := c.DefineType("NODE", []schema.Field{
		{Name: "v", Kind: schema.KindInt},
		{Name: "next", Kind: schema.KindRef, RefType: "NODE"},
	}); err != nil {
		t.Fatalf("self-ref type rejected: %v", err)
	}

	if _, err := c.CreateSet("Emp1", "EMP", 9); err == nil {
		t.Fatal("duplicate set accepted")
	}
	if _, err := c.CreateSet("Bad", "NOPE", 9); err == nil {
		t.Fatal("set of undefined type accepted")
	}
	typ, err := c.SetType("Emp1")
	if err != nil || typ.Name != "EMP" {
		t.Fatalf("SetType = %v, %v", typ, err)
	}
	if len(c.Sets()) != 4 {
		t.Fatalf("Sets() returned %d", len(c.Sets()))
	}
}

func TestParsePathSpec(t *testing.T) {
	spec, err := ParsePathSpec("Emp1.dept.org.name")
	if err != nil {
		t.Fatal(err)
	}
	want := PathSpec{Source: "Emp1", Refs: []string{"dept", "org"}, Field: "name"}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.String() != "Emp1.dept.org.name" {
		t.Fatalf("String = %q", spec.String())
	}
	for _, bad := range []string{"", "Emp1", "Emp1.name", "Emp1..name"} {
		if _, err := ParsePathSpec(bad); err == nil {
			t.Errorf("ParsePathSpec(%q) accepted", bad)
		}
	}
}

func TestAddPathValidation(t *testing.T) {
	c := employeeCatalog(t)
	cases := []struct {
		spec   string
		substr string
	}{
		{"Nope.dept.name", "no set"},
		{"Emp1.missing.name", "no field"},
		{"Emp1.age.name", "not a reference"},
		{"Emp1.dept.missing", "no field"},
	}
	for _, tc := range cases {
		spec, err := ParsePathSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddPath(spec, InPlace); err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("AddPath(%s): err = %v, want containing %q", tc.spec, err, tc.substr)
		}
	}
	spec, _ := ParsePathSpec("Emp1.dept.name")
	if _, err := c.AddPath(spec, Strategy(9)); err == nil {
		t.Error("invalid strategy accepted")
	}
	// Replicating a reference attribute (§3.3.3 path collapsing) is allowed
	// in-place but not separately.
	refSpec, _ := ParsePathSpec("Emp1.dept.org")
	if _, err := c.AddPath(refSpec, Separate); err == nil || !strings.Contains(err.Error(), "in-place") {
		t.Errorf("separate ref replication: %v", err)
	}
	if p, err := c.AddPath(refSpec, InPlace); err != nil {
		t.Errorf("in-place ref replication rejected: %v", err)
	} else if len(p.Fields) != 1 || p.Fields[0].Kind != schema.KindRef {
		t.Errorf("ref replication fields = %v", p.Fields)
	}
	if _, err := c.AddPath(spec, InPlace); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddPath(spec, InPlace); !errors.Is(err, ErrPathExists) {
		t.Errorf("duplicate path: %v", err)
	}
}

// TestLinkSharing reproduces the paper's §4.1.4 example: three paths from
// Emp1 share link 1; a fourth path from Emp2 gets its own link.
func TestLinkSharing(t *testing.T) {
	c := employeeCatalog(t)
	mustPath := func(s string, strat Strategy) *Path {
		spec, err := ParsePathSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		p, err := addLive(c, spec, strat)
		if err != nil {
			t.Fatalf("AddPath(%s): %v", s, err)
		}
		return p
	}
	p1 := mustPath("Emp1.dept.budget", InPlace)
	p2 := mustPath("Emp1.dept.name", InPlace)
	p3 := mustPath("Emp1.dept.org.name", InPlace)
	p4 := mustPath("Emp2.dept.org.name", InPlace)

	if !reflect.DeepEqual(p1.LinkSequence(), []uint8{1}) {
		t.Fatalf("p1 link sequence = %v, want [1]", p1.LinkSequence())
	}
	if !reflect.DeepEqual(p2.LinkSequence(), []uint8{1}) {
		t.Fatalf("p2 link sequence = %v, want [1]", p2.LinkSequence())
	}
	if !reflect.DeepEqual(p3.LinkSequence(), []uint8{1, 2}) {
		t.Fatalf("p3 link sequence = %v, want [1,2]", p3.LinkSequence())
	}
	if got := p4.LinkSequence(); len(got) != 2 || got[0] == 1 || got[1] == 2 {
		t.Fatalf("p4 link sequence = %v, want two fresh links", got)
	}
	if p1.Links[0] != p2.Links[0] || p1.Links[0] != p3.Links[0] {
		t.Fatal("prefix-sharing paths do not share the link object")
	}
	l, ok := c.LinkByID(1)
	if !ok || l.RefField != "dept" || l.Level != 0 || l.FromType != "EMP" || l.ToType != "DEPT" {
		t.Fatalf("link 1 = %+v", l)
	}
	got := c.PathsWithLink(1)
	if len(got) != 3 {
		t.Fatalf("PathsWithLink(1) returned %d paths", len(got))
	}
	l2, _ := c.LinkByID(2)
	if l2.Level != 1 || l2.FromType != "DEPT" || l2.ToType != "ORG" {
		t.Fatalf("link 2 = %+v", l2)
	}
}

func TestSeparateGroupsShareAndExtend(t *testing.T) {
	c := employeeCatalog(t)
	add := func(s string) *Path {
		spec, _ := ParsePathSpec(s)
		p, err := addLive(c, spec, Separate)
		if err != nil {
			t.Fatalf("AddPath(%s): %v", s, err)
		}
		return p
	}
	p1 := add("Emp1.dept.name")
	g1 := p1.Group
	p2 := add("Emp1.dept.budget")
	p3 := add("Emp2.dept.name")

	if p1.Group == nil || p2.Group == nil {
		t.Fatal("separate paths lack groups")
	}
	if p1.Group != p2.Group {
		t.Fatal("Emp1.dept.name and Emp1.dept.budget should share one S′ group")
	}
	if p3.Group == p1.Group {
		t.Fatal("Emp2 path must not share Emp1's S′ group (paper §5: no sharing between sets)")
	}
	g := p1.Group
	if len(g.Fields) != 2 {
		t.Fatalf("group fields = %v, want name and budget", g.Fields)
	}
	if g.Fields[0].Name != "name" || g.Fields[1].Name != "budget" {
		t.Fatalf("group fields = %v", g.Fields)
	}
	if g.Fields[0].Idx == g.Fields[1].Idx {
		t.Fatal("group fields share an index")
	}
	// The wider group is a new one; the old one is left to a building
	// placeholder whose teardown clears it.
	if g == g1 || g.ID == g1.ID {
		t.Fatal("a widened group kept its ID: its S′ objects would change layout in place")
	}
	if b := c.Building(); len(b) != 1 || b[0].Group != g1 || !c.SoleGroupUser(b[0]) {
		t.Fatalf("building after the widening = %v, want one placeholder owning the old group", b)
	}
	// A repeated field keeps its index.
	spec, _ := ParsePathSpec("Emp1.dept.name")
	if _, err := c.AddPath(spec, Separate); !errors.Is(err, ErrPathExists) {
		t.Fatalf("dup separate path: %v", err)
	}
	// 1-level separate paths have no links (0-level inverted path).
	if len(p1.Links) != 0 {
		t.Fatalf("1-level separate path has %d links, want 0", len(p1.Links))
	}
	// 2-level separate path has exactly one link.
	p4 := add("Emp1.dept.org.name")
	if len(p4.Links) != 1 || p4.Links[0].RefField != "dept" {
		t.Fatalf("2-level separate path links = %+v", p4.Links)
	}
	if gg, ok := c.GroupByID(g.ID); !ok || gg != g {
		t.Fatal("GroupByID failed")
	}
	if got := c.PathsWithGroup(g.ID); len(got) != 2 {
		t.Fatalf("PathsWithGroup = %d paths", len(got))
	}
	// A path replicating a subset of the live group's fields shares it.
	p5 := add("Emp1.dept.all")
	if p5.Group != g || len(g.Fields) != 2 {
		t.Fatalf("Emp1.dept.all group = %+v", p5.Group)
	}
	spec6, _ := ParsePathSpec("Emp2.dept.name")
	if _, err := c.AddPath(spec6, Separate); !errors.Is(err, ErrPathExists) {
		t.Fatalf("dup Emp2 path: %v", err)
	}
}

func TestFullObjectReplication(t *testing.T) {
	c := employeeCatalog(t)
	spec, _ := ParsePathSpec("Emp1.dept.all")
	p, err := c.AddPath(spec, InPlace)
	if err != nil {
		t.Fatal(err)
	}
	// DEPT scalar fields are name and budget; org (ref) is excluded.
	if len(p.Fields) != 2 {
		t.Fatalf("all-replication fields = %v", p.Fields)
	}
	names := []string{p.Fields[0].Name, p.Fields[1].Name}
	if !reflect.DeepEqual(names, []string{"name", "budget"}) {
		t.Fatalf("field names = %v", names)
	}
	if p.TerminalType().Name != "DEPT" {
		t.Fatalf("terminal type = %s", p.TerminalType().Name)
	}
	if _, ok := p.FieldByTerminal(1); !ok {
		t.Fatal("FieldByTerminal(budget) missed")
	}
	if _, ok := p.FieldByTerminal(2); ok {
		t.Fatal("FieldByTerminal(org) should miss (ref field)")
	}
}

func TestCollapsedPathValidation(t *testing.T) {
	c := employeeCatalog(t)
	spec2, _ := ParsePathSpec("Emp1.dept.org.name")
	p, err := c.AddPath(spec2, InPlace, WithCollapsed())
	if err != nil {
		t.Fatal(err)
	}
	if p.CollapsedLink == nil || len(p.Links) != 0 {
		t.Fatal("collapsed path should have a single collapsed link")
	}
	if got := p.LinkSequence(); len(got) != 1 {
		t.Fatalf("collapsed link sequence = %v", got)
	}
	spec1, _ := ParsePathSpec("Emp2.dept.name")
	if _, err := c.AddPath(spec1, InPlace, WithCollapsed()); err == nil {
		t.Fatal("collapsed 1-level path accepted")
	}
	if _, err := c.AddPath(spec2, Separate, WithCollapsed()); err == nil {
		t.Fatal("collapsed separate path accepted")
	}
}

func TestPathQueries(t *testing.T) {
	c := employeeCatalog(t)
	s1, _ := ParsePathSpec("Emp1.dept.name")
	s2, _ := ParsePathSpec("Emp2.dept.name")
	addLive(c, s1, InPlace)
	addLive(c, s2, Separate)
	if got := c.PathsFromSet("Emp1"); len(got) != 1 {
		t.Fatalf("PathsFromSet(Emp1) = %d", len(got))
	}
	if got := c.PathsFromSet("Dept"); len(got) != 0 {
		t.Fatalf("PathsFromSet(Dept) = %d", len(got))
	}
	if len(c.Paths()) != 2 {
		t.Fatal("Paths() wrong")
	}
	if p, ok := c.FindPath(s1, InPlace); !ok || p.Spec.Source != "Emp1" {
		t.Fatal("FindPath by strategy failed")
	}
	if _, ok := c.FindPath(s1, Separate); ok {
		t.Fatal("FindPath matched wrong strategy")
	}
	if p, ok := c.FindPath(s2, 0); !ok || p.Strategy != Separate {
		t.Fatal("FindPath any-strategy failed")
	}
	if p, _ := c.FindPath(s1, InPlace); p.NLevels() != 1 {
		t.Fatal("NLevels wrong")
	}
}

func TestIndexRegistry(t *testing.T) {
	c := employeeCatalog(t)
	ix := &Index{Name: "emp1_salary", Set: "Emp1", Field: "salary", KeyKind: schema.KindInt}
	if err := c.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(ix); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if err := c.AddIndex(&Index{Name: "x", Set: "Nope", Field: "f"}); err == nil {
		t.Fatal("index on missing set accepted")
	}
	pix := &Index{Name: "emp1_orgname", Set: "Emp1", Field: "name", Path: []string{"dept", "org"}, KeyKind: schema.KindString}
	if err := c.AddIndex(pix); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.IndexByName("emp1_salary"); !ok || got != ix {
		t.Fatal("IndexByName failed")
	}
	if got, ok := c.IndexFor("Emp1", "salary"); !ok || got != ix {
		t.Fatal("IndexFor failed")
	}
	if _, ok := c.IndexFor("Emp1", "name"); ok {
		t.Fatal("IndexFor matched a path index as base index")
	}
	if got, ok := c.PathIndexFor("Emp1", []string{"dept", "org"}, "name"); !ok || got != pix {
		t.Fatal("PathIndexFor failed")
	}
	if _, ok := c.PathIndexFor("Emp1", []string{"dept"}, "name"); ok {
		t.Fatal("PathIndexFor matched wrong chain")
	}
	if got := c.IndexesOn("Emp1"); len(got) != 2 {
		t.Fatalf("IndexesOn = %d", len(got))
	}
	if !pix.IsPathIndex() || ix.IsPathIndex() {
		t.Fatal("IsPathIndex wrong")
	}
}

func TestStrategyString(t *testing.T) {
	if InPlace.String() != "in-place" || Separate.String() != "separate" {
		t.Fatal("Strategy.String wrong")
	}
	if !strings.Contains(Strategy(9).String(), "9") {
		t.Fatal("unknown strategy string")
	}
}
