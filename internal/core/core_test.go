package core

import (
	"errors"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// fixture loads the small company of the paper's examples: two orgs, three
// departments, employees in Emp1 and Emp2.
type fixture struct {
	db         *testDB
	orgA, orgB pagefile.OID
	d1, d2, d3 pagefile.OID
	e1, e2, e3 pagefile.OID // Emp1 members: e1,e2 -> d1, e3 -> d2
	f1         pagefile.OID // Emp2 member -> d1
}

func load(t *testing.T, opts ...Option) *fixture {
	db := newTestDB(t, opts...)
	fx := &fixture{db: db}
	fx.orgA = db.insert("Org", map[string]schema.Value{"name": str("Acme"), "budget": num(1000)})
	fx.orgB = db.insert("Org", map[string]schema.Value{"name": str("Globex"), "budget": num(2000)})
	fx.d1 = db.insert("Dept", map[string]schema.Value{"name": str("Research"), "budget": num(100), "org": ref(fx.orgA)})
	fx.d2 = db.insert("Dept", map[string]schema.Value{"name": str("Sales"), "budget": num(200), "org": ref(fx.orgA)})
	fx.d3 = db.insert("Dept", map[string]schema.Value{"name": str("Legal"), "budget": num(300), "org": ref(fx.orgB)})
	fx.e1 = db.insert("Emp1", map[string]schema.Value{"name": str("Alice"), "age": num(30), "salary": num(120000), "dept": ref(fx.d1)})
	fx.e2 = db.insert("Emp1", map[string]schema.Value{"name": str("Bob"), "age": num(40), "salary": num(90000), "dept": ref(fx.d1)})
	fx.e3 = db.insert("Emp1", map[string]schema.Value{"name": str("Carol"), "age": num(50), "salary": num(150000), "dept": ref(fx.d2)})
	fx.f1 = db.insert("Emp2", map[string]schema.Value{"name": str("Dave"), "age": num(35), "salary": num(80000), "dept": ref(fx.d1)})
	return fx
}

func TestInPlaceOneLevelBasics(t *testing.T) {
	fx := load(t)
	db := fx.db
	p := db.replicate("Emp1.dept.name", catalog.InPlace)
	db.verify()

	// Hidden values installed by BuildPath over existing data.
	if got := db.replicated(p, "Emp1", fx.e1, "name"); got.S != "Research" {
		t.Fatalf("e1 replicated dept.name = %v", got)
	}
	if got := db.replicated(p, "Emp1", fx.e3, "name"); got.S != "Sales" {
		t.Fatalf("e3 replicated dept.name = %v", got)
	}
	// Emp2 is not on the path: no hidden values.
	if o := db.read("Emp2", fx.f1); len(o.Hidden) != 0 {
		t.Fatalf("Emp2 object has hidden values %v", o.Hidden)
	}
	// d3 is unreferenced by Emp1: it must carry no link pair (paper Figure 2:
	// "only D1 and D2 have link objects").
	if o := db.read("Dept", fx.d3); len(o.Links) != 0 {
		t.Fatalf("unreferenced dept carries link pairs %v", o.Links)
	}

	// Updating a replicated field propagates to exactly the referrers.
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"name": str("R&D")}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e1, "name"); got.S != "R&D" {
		t.Fatalf("after rename, e1 sees %v", got)
	}
	if got := db.replicated(p, "Emp1", fx.e2, "name"); got.S != "R&D" {
		t.Fatalf("after rename, e2 sees %v", got)
	}
	if got := db.replicated(p, "Emp1", fx.e3, "name"); got.S != "Sales" {
		t.Fatalf("e3 must be untouched, sees %v", got)
	}
	// Updating an unreplicated field does not disturb hidden values.
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"budget": num(101)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e1, "name"); got.S != "R&D" {
		t.Fatal("budget update disturbed replicated name")
	}
	db.verify()
}

func TestInPlaceInsertDeleteMaintenance(t *testing.T) {
	fx := load(t)
	db := fx.db
	p := db.replicate("Emp1.dept.name", catalog.InPlace)

	// Insert after the path exists: hidden value filled at insert (§4.1.1).
	e4 := db.insert("Emp1", map[string]schema.Value{"name": str("Erin"), "age": num(28), "salary": num(70000), "dept": ref(fx.d3)})
	if got := db.replicated(p, "Emp1", e4, "name"); got.S != "Legal" {
		t.Fatalf("inserted emp sees %v", got)
	}
	db.verify()

	// d3 now carries a link pair; deleting its only referrer removes it.
	if o := db.read("Dept", fx.d3); len(o.Links) != 1 {
		t.Fatalf("d3 links = %v", o.Links)
	}
	if err := db.remove("Emp1", e4); err != nil {
		t.Fatal(err)
	}
	if o := db.read("Dept", fx.d3); len(o.Links) != 0 {
		t.Fatalf("d3 still carries links after delete: %v", o.Links)
	}
	db.verify()

	// Deleting one of two referrers keeps the structure.
	if err := db.remove("Emp1", fx.e1); err != nil {
		t.Fatal(err)
	}
	if o := db.read("Dept", fx.d1); len(o.Links) != 1 {
		t.Fatalf("d1 lost its link with e2 still referencing: %v", o.Links)
	}
	db.verify()
}

func TestInPlaceSourceRefUpdate(t *testing.T) {
	fx := load(t)
	db := fx.db
	p := db.replicate("Emp1.dept.name", catalog.InPlace)

	// update E.dept: the paper's delete-then-insert semantics (§4.1.1).
	if err := db.update("Emp1", fx.e3, map[string]schema.Value{"dept": ref(fx.d1)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e3, "name"); got.S != "Research" {
		t.Fatalf("after dept change, e3 sees %v", got)
	}
	// d2 lost its only referrer.
	if o := db.read("Dept", fx.d2); len(o.Links) != 0 {
		t.Fatalf("d2 still carries links: %v", o.Links)
	}
	db.verify()

	// Null the ref: hidden value becomes the zero value.
	if err := db.update("Emp1", fx.e3, map[string]schema.Value{"dept": ref(pagefile.NilOID)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e3, "name"); got.S != "" {
		t.Fatalf("after null ref, e3 sees %v", got)
	}
	db.verify()

	// Set it back.
	if err := db.update("Emp1", fx.e3, map[string]schema.Value{"dept": ref(fx.d2)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e3, "name"); got.S != "Sales" {
		t.Fatalf("after re-ref, e3 sees %v", got)
	}
	db.verify()
}

func TestInPlaceTwoLevelPath(t *testing.T) {
	fx := load(t)
	db := fx.db
	p := db.replicate("Emp1.dept.org.name", catalog.InPlace)
	db.verify()

	if got := db.replicated(p, "Emp1", fx.e1, "name"); got.S != "Acme" {
		t.Fatalf("e1 org name = %v", got)
	}
	// Terminal update ripples through two links.
	if err := db.update("Org", fx.orgA, map[string]schema.Value{"name": str("Acme Corp")}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []pagefile.OID{fx.e1, fx.e2, fx.e3} {
		if got := db.replicated(p, "Emp1", e, "name"); got.S != "Acme Corp" {
			t.Fatalf("emp %v sees %v", e, got)
		}
	}
	db.verify()

	// Intermediate ref update (D.org): "X.name will have to replace O.name
	// in all of the objects in Emp1 that reference D" (§4.1.2).
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"org": ref(fx.orgB)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e1, "name"); got.S != "Globex" {
		t.Fatalf("after d1.org move, e1 sees %v", got)
	}
	if got := db.replicated(p, "Emp1", fx.e3, "name"); got.S != "Acme Corp" {
		t.Fatalf("e3 (different dept) sees %v", got)
	}
	db.verify()

	// Deleting the last employee of a dept ripples both levels (§4.1.2
	// "both D's link object and O's link object may end up being deleted").
	if err := db.remove("Emp1", fx.e3); err != nil {
		t.Fatal(err)
	}
	if o := db.read("Dept", fx.d2); len(o.Links) != 0 {
		t.Fatalf("d2 keeps links: %v", o.Links)
	}
	db.verify()
}

func TestSharedPrefixPropagation(t *testing.T) {
	fx := load(t)
	db := fx.db
	pBudget := db.replicate("Emp1.dept.budget", catalog.InPlace)
	pName := db.replicate("Emp1.dept.name", catalog.InPlace)
	pOrg := db.replicate("Emp1.dept.org.name", catalog.InPlace)
	db.verify()

	// All three share link 1: d1 carries exactly one link pair for it, plus
	// none other at level 0 (paper Figure 5).
	o := db.read("Dept", fx.d1)
	if len(o.Links) != 1 {
		t.Fatalf("d1 carries %d link pairs, want 1 (shared)", len(o.Links))
	}
	// Updating budget touches only the budget path.
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"budget": num(111)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(pBudget, "Emp1", fx.e1, "budget"); got.I != 111 {
		t.Fatalf("budget = %v", got)
	}
	if got := db.replicated(pName, "Emp1", fx.e1, "name"); got.S != "Research" {
		t.Fatalf("name disturbed: %v", got)
	}
	if got := db.replicated(pOrg, "Emp1", fx.e1, "name"); got.S != "Acme" {
		t.Fatalf("org name disturbed: %v", got)
	}
	db.verify()

	// A dept move re-resolves all three paths for the moved employee.
	if err := db.update("Emp1", fx.e1, map[string]schema.Value{"dept": ref(fx.d3)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(pBudget, "Emp1", fx.e1, "budget"); got.I != 300 {
		t.Fatalf("after move, budget = %v", got)
	}
	if got := db.replicated(pName, "Emp1", fx.e1, "name"); got.S != "Legal" {
		t.Fatalf("after move, name = %v", got)
	}
	if got := db.replicated(pOrg, "Emp1", fx.e1, "name"); got.S != "Globex" {
		t.Fatalf("after move, org = %v", got)
	}
	db.verify()
}

func TestSeparateOneLevelSharing(t *testing.T) {
	fx := load(t)
	db := fx.db
	pName := db.replicate("Emp1.dept.name", catalog.Separate)
	pBudget := db.replicate("Emp1.dept.budget", catalog.Separate)
	db.verify()

	if pName.Group != pBudget.Group {
		t.Fatal("paths do not share an S′ group")
	}
	// Both e1 and e2 share d1's S′ object.
	o1, o2 := db.read("Emp1", fx.e1), db.read("Emp1", fx.e2)
	r1, _ := o1.GetHidden(pName.Group.ID, catalog.HiddenSPrimeIdx)
	r2, _ := o2.GetHidden(pName.Group.ID, catalog.HiddenSPrimeIdx)
	if r1.R.IsNil() || r1.R != r2.R {
		t.Fatalf("e1/e2 S′ refs differ: %v vs %v", r1, r2)
	}
	// Terminal carries the refcount.
	d1 := db.read("Dept", fx.d1)
	se := d1.FindSep(pName.Group.ID)
	if se == nil || se.RefCount != 2 {
		t.Fatalf("d1 sep entry = %+v", se)
	}
	// Update propagates to the one shared object only.
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"name": str("R&D"), "budget": num(555)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(pName, "Emp1", fx.e1, "name"); got.S != "R&D" {
		t.Fatalf("separate name = %v", got)
	}
	if got := db.replicated(pBudget, "Emp1", fx.e2, "budget"); got.I != 555 {
		t.Fatalf("separate budget = %v", got)
	}
	db.verify()

	// Moving e1's dept adjusts refcounts and retargets the hidden ref.
	if err := db.update("Emp1", fx.e1, map[string]schema.Value{"dept": ref(fx.d2)}); err != nil {
		t.Fatal(err)
	}
	d1 = db.read("Dept", fx.d1)
	if se := d1.FindSep(pName.Group.ID); se == nil || se.RefCount != 1 {
		t.Fatalf("d1 refcount after move = %+v", se)
	}
	if got := db.replicated(pName, "Emp1", fx.e1, "name"); got.S != "Sales" {
		t.Fatalf("after move, e1 sees %v", got)
	}
	db.verify()

	// Deleting the last referrer frees the S′ object.
	if err := db.remove("Emp1", fx.e2); err != nil {
		t.Fatal(err)
	}
	d1 = db.read("Dept", fx.d1)
	if d1.FindSep(pName.Group.ID) != nil {
		t.Fatal("d1 keeps S′ entry with no referrers")
	}
	db.verify()
}

func TestSeparateGroupsNotSharedAcrossSets(t *testing.T) {
	fx := load(t)
	db := fx.db
	p1 := db.replicate("Emp1.dept.name", catalog.Separate)
	p2 := db.replicate("Emp2.dept.name", catalog.Separate)
	if p1.Group == p2.Group {
		t.Fatal("S′ groups shared across sets (paper §5 forbids)")
	}
	// d1 is referenced from both sets: two sep entries, two S′ files.
	d1 := db.read("Dept", fx.d1)
	if len(d1.Seps) != 2 {
		t.Fatalf("d1 sep entries = %v", d1.Seps)
	}
	db.verify()
	_ = fx
}

func TestSeparateTwoLevel(t *testing.T) {
	fx := load(t)
	db := fx.db
	p := db.replicate("Emp1.dept.org.name", catalog.Separate)
	db.verify()

	// 2-level separate path keeps a 1-level inverted path (n-1 levels, §5.2).
	if len(p.Links) != 1 {
		t.Fatalf("links = %d, want 1", len(p.Links))
	}
	if got := db.replicated(p, "Emp1", fx.e1, "name"); got.S != "Acme" {
		t.Fatalf("e1 sees %v", got)
	}
	// Org rename: one S′ write serves all of Acme's employees.
	if err := db.update("Org", fx.orgA, map[string]schema.Value{"name": str("Acme2")}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []pagefile.OID{fx.e1, fx.e2, fx.e3} {
		if got := db.replicated(p, "Emp1", e, "name"); got.S != "Acme2" {
			t.Fatalf("emp sees %v", got)
		}
	}
	db.verify()

	// D.org change: "E3 must be updated so that it references R1 rather
	// than R2" (§5.2) — here e1,e2 move from orgA's S′ to orgB's.
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"org": ref(fx.orgB)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e1, "name"); got.S != "Globex" {
		t.Fatalf("after org move, e1 sees %v", got)
	}
	if got := db.replicated(p, "Emp1", fx.e3, "name"); got.S != "Acme2" {
		t.Fatalf("e3 must still see Acme2: %v", got)
	}
	orgA := db.read("Org", fx.orgA)
	if se := orgA.FindSep(p.Group.ID); se == nil || se.RefCount != 1 {
		t.Fatalf("orgA refcount = %+v, want 1 (only e3)", se)
	}
	orgB := db.read("Org", fx.orgB)
	if se := orgB.FindSep(p.Group.ID); se == nil || se.RefCount != 2 {
		t.Fatalf("orgB refcount = %+v, want 2", se)
	}
	db.verify()
}

func TestGroupExtensionRebuild(t *testing.T) {
	fx := load(t)
	db := fx.db
	pName := db.replicate("Emp1.dept.name", catalog.Separate)
	db.verify()
	// Adding the budget path widens the group and rebuilds S′.
	pBudget := db.replicate("Emp1.dept.budget", catalog.Separate)
	db.verify()
	if got := db.replicated(pName, "Emp1", fx.e1, "name"); got.S != "Research" {
		t.Fatalf("name after rebuild = %v", got)
	}
	if got := db.replicated(pBudget, "Emp1", fx.e1, "budget"); got.I != 100 {
		t.Fatalf("budget after rebuild = %v", got)
	}
	// Updates keep working after the rebuild.
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"budget": num(777)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(pBudget, "Emp1", fx.e2, "budget"); got.I != 777 {
		t.Fatalf("budget after update = %v", got)
	}
	db.verify()
}

func TestFullObjectReplicationAll(t *testing.T) {
	fx := load(t)
	db := fx.db
	p := db.replicate("Emp1.dept.all", catalog.InPlace)
	if got := db.replicated(p, "Emp1", fx.e1, "name"); got.S != "Research" {
		t.Fatalf("all: name = %v", got)
	}
	if got := db.replicated(p, "Emp1", fx.e1, "budget"); got.I != 100 {
		t.Fatalf("all: budget = %v", got)
	}
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"name": str("R&D"), "budget": num(1)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e2, "name"); got.S != "R&D" {
		t.Fatalf("all after update: name = %v", got)
	}
	if got := db.replicated(p, "Emp1", fx.e2, "budget"); got.I != 1 {
		t.Fatalf("all after update: budget = %v", got)
	}
	db.verify()
}

func TestCollapsedPath(t *testing.T) {
	fx := load(t)
	db := fx.db
	p := db.replicate("Emp1.dept.org.name", catalog.InPlace, catalog.WithCollapsed())
	db.verify()

	if got := db.replicated(p, "Emp1", fx.e1, "name"); got.S != "Acme" {
		t.Fatalf("collapsed e1 sees %v", got)
	}
	// Terminal update propagates directly (one link level).
	if err := db.update("Org", fx.orgA, map[string]schema.Value{"name": str("AcmeX")}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e2, "name"); got.S != "AcmeX" {
		t.Fatalf("collapsed propagation: %v", got)
	}
	db.verify()

	// Intermediate move: "the OIDs of E1, E2, and E3 will have to be moved
	// from O's link object to X's link object" (§4.3.3).
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"org": ref(fx.orgB)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e1, "name"); got.S != "Globex" {
		t.Fatalf("after collapsed move, e1 sees %v", got)
	}
	if got := db.replicated(p, "Emp1", fx.e3, "name"); got.S != "AcmeX" {
		t.Fatalf("e3 must be untouched: %v", got)
	}
	db.verify()

	// Source-level dept change.
	if err := db.update("Emp1", fx.e3, map[string]schema.Value{"dept": ref(fx.d1)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", fx.e3, "name"); got.S != "Globex" {
		t.Fatalf("after source move, e3 sees %v", got)
	}
	db.verify()

	// Delete; structures clean up.
	for _, e := range []pagefile.OID{fx.e1, fx.e2, fx.e3} {
		if err := db.remove("Emp1", e); err != nil {
			t.Fatal(err)
		}
	}
	orgB := db.read("Org", fx.orgB)
	if len(orgB.Links) != 0 {
		t.Fatalf("orgB keeps collapsed links: %v", orgB.Links)
	}
	d1 := db.read("Dept", fx.d1)
	if len(d1.Links) != 0 {
		t.Fatalf("d1 keeps collapsed marker: %v", d1.Links)
	}
	db.verify()
}

func TestInlineMaterialization(t *testing.T) {
	fx := load(t, WithInlineMax(2))
	db := fx.db
	db.replicate("Emp1.dept.name", catalog.InPlace)

	// d1 has two referrers: inline.
	d1 := db.read("Dept", fx.d1)
	lp := d1.Links[0]
	if lp.Mode != schema.LinkModeInline || len(lp.Inline) != 2 {
		t.Fatalf("d1 pair = %+v, want inline of 2", lp)
	}
	// Third referrer forces materialization into a link object.
	db.insert("Emp1", map[string]schema.Value{"name": str("Erin"), "age": num(1), "salary": num(1), "dept": ref(fx.d1)})
	d1 = db.read("Dept", fx.d1)
	lp = d1.Links[0]
	if lp.Mode != schema.LinkModeObject {
		t.Fatalf("d1 pair after 3rd referrer = %+v, want link object", lp)
	}
	db.verify()

	// Propagation works in both modes.
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"name": str("Z")}); err != nil {
		t.Fatal(err)
	}
	db.verify()
}

func TestInlineDisabled(t *testing.T) {
	fx := load(t, WithInlineMax(0))
	db := fx.db
	db.replicate("Emp1.dept.name", catalog.InPlace)
	d2 := db.read("Dept", fx.d2)
	if d2.Links[0].Mode != schema.LinkModeObject {
		t.Fatalf("with inlining disabled, pair = %+v", d2.Links[0])
	}
	db.verify()
}

func TestDeleteGuard(t *testing.T) {
	fx := load(t)
	db := fx.db
	db.replicate("Emp1.dept.name", catalog.InPlace)
	if err := db.remove("Dept", fx.d1); !errors.Is(err, ErrStillReferenced) {
		t.Fatalf("deleting referenced dept: err = %v, want ErrStillReferenced", err)
	}
	// An unreferenced dept deletes fine.
	if err := db.remove("Dept", fx.d3); err != nil {
		t.Fatalf("deleting unreferenced dept: %v", err)
	}
	db.verify()
}

func TestSeparateDeleteGuard(t *testing.T) {
	fx := load(t)
	db := fx.db
	db.replicate("Emp1.dept.name", catalog.Separate)
	if err := db.remove("Dept", fx.d1); !errors.Is(err, ErrStillReferenced) {
		t.Fatalf("deleting dept with live S′ refcount: %v", err)
	}
	db.verify()
}

func TestBrokenChainAtInsert(t *testing.T) {
	fx := load(t)
	db := fx.db
	p := db.replicate("Emp1.dept.org.name", catalog.InPlace)
	// An employee with a null dept gets zero hidden values.
	e := db.insert("Emp1", map[string]schema.Value{"name": str("Nil"), "age": num(1), "salary": num(1), "dept": ref(pagefile.NilOID)})
	if got := db.replicated(p, "Emp1", e, "name"); got.S != "" {
		t.Fatalf("null chain sees %v", got)
	}
	db.verify()
	// A dept with a null org breaks the chain one level up.
	d := db.insert("Dept", map[string]schema.Value{"name": str("Orphan"), "budget": num(0), "org": ref(pagefile.NilOID)})
	if err := db.update("Emp1", e, map[string]schema.Value{"dept": ref(d)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", e, "name"); got.S != "" {
		t.Fatalf("half-broken chain sees %v", got)
	}
	db.verify()
	// Completing the chain resolves values.
	if err := db.update("Dept", d, map[string]schema.Value{"org": ref(fx.orgB)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(p, "Emp1", e, "name"); got.S != "Globex" {
		t.Fatalf("completed chain sees %v", got)
	}
	db.verify()
}

func TestMixedStrategiesCoexist(t *testing.T) {
	fx := load(t)
	db := fx.db
	pIn := db.replicate("Emp1.dept.name", catalog.InPlace)
	pSep := db.replicate("Emp1.dept.budget", catalog.Separate)
	db.verify()
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"name": str("N"), "budget": num(9)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(pIn, "Emp1", fx.e1, "name"); got.S != "N" {
		t.Fatalf("in-place sees %v", got)
	}
	if got := db.replicated(pSep, "Emp1", fx.e1, "budget"); got.I != 9 {
		t.Fatalf("separate sees %v", got)
	}
	// Moves update both.
	if err := db.update("Emp1", fx.e1, map[string]schema.Value{"dept": ref(fx.d2)}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(pIn, "Emp1", fx.e1, "name"); got.S != "Sales" {
		t.Fatalf("in-place after move: %v", got)
	}
	if got := db.replicated(pSep, "Emp1", fx.e1, "budget"); got.I != 200 {
		t.Fatalf("separate after move: %v", got)
	}
	db.verify()
}

// recordingListener captures hidden-value change notifications.
type recordingListener struct {
	events []string
}

func (r *recordingListener) HiddenChanged(src pagefile.OID, p *catalog.Path, f catalog.ReplField, old, new schema.Value) {
	r.events = append(r.events, f.Name+":"+old.String()+"->"+new.String())
}

func (r *recordingListener) Watches(*catalog.Path, catalog.ReplField) bool { return true }

func TestListenerNotifications(t *testing.T) {
	lis := &recordingListener{}
	fx := load(t)
	db := fx.db
	db.mgr = db.mgr.WithSession(db, lis)
	db.replicate("Emp1.dept.name", catalog.InPlace)
	n := len(lis.events)
	if n == 0 {
		t.Fatal("BuildPath produced no notifications")
	}
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"name": str("XX")}); err != nil {
		t.Fatal(err)
	}
	if len(lis.events) != n+2 { // e1 and e2
		t.Fatalf("update produced %d notifications, want 2", len(lis.events)-n)
	}
	// No notification when the value does not actually change.
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"name": str("XX")}); err != nil {
		t.Fatal(err)
	}
	if len(lis.events) != n+2 {
		t.Fatal("no-op update produced notifications")
	}
}

// TestSeparateTwoLevelSharedGroupMove: two 2-level separate paths in one
// group; an intermediate ref move must adjust refcounts exactly once.
func TestSeparateTwoLevelSharedGroupMove(t *testing.T) {
	fx := load(t)
	db := fx.db
	pName := db.replicate("Emp1.dept.org.name", catalog.Separate)
	pBudget := db.replicate("Emp1.dept.org.budget", catalog.Separate)
	if pName.Group != pBudget.Group {
		t.Fatal("paths should share a group")
	}
	db.verify()
	// d1 (e1, e2) moves from orgA to orgB.
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"org": ref(fx.orgB)}); err != nil {
		t.Fatal(err)
	}
	orgB := db.read("Org", fx.orgB)
	if se := orgB.FindSep(pName.Group.ID); se == nil || se.RefCount != 2 {
		t.Fatalf("orgB refcount = %+v, want 2", se)
	}
	if got := db.replicated(pBudget, "Emp1", fx.e1, "budget"); got.I != 2000 {
		t.Fatalf("e1 org budget = %v", got)
	}
	db.verify()
}
