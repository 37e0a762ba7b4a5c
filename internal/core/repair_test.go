package core

import (
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// repairFixture builds the employee database with two departments and four
// employees, returning the populated testDB and the inserted OIDs.
type repairFixture struct {
	db   *testDB
	org  pagefile.OID
	d1   pagefile.OID
	d2   pagefile.OID
	emps []pagefile.OID // e0,e1 -> d1; e2,e3 -> d2
}

func newRepairFixture(t *testing.T) *repairFixture {
	db := newTestDB(t)
	fx := &repairFixture{db: db}
	fx.org = db.insert("Org", map[string]schema.Value{"name": str("exo"), "budget": num(5000)})
	fx.d1 = db.insert("Dept", map[string]schema.Value{"name": str("toys"), "budget": num(100), "org": ref(fx.org)})
	fx.d2 = db.insert("Dept", map[string]schema.Value{"name": str("shoes"), "budget": num(200), "org": ref(fx.org)})
	for i, d := range []pagefile.OID{fx.d1, fx.d1, fx.d2, fx.d2} {
		fx.emps = append(fx.emps, db.insert("Emp1", map[string]schema.Value{
			"name": str("e" + string(rune('0'+i))), "age": num(int64(30 + i)),
			"salary": num(int64(1000 * (i + 1))), "dept": ref(d),
		}))
	}
	return fx
}

// rewrite applies change to the object at oid behind the manager's back.
func (fx *repairFixture) rewrite(t *testing.T, typeName string, oid pagefile.OID, change func(*schema.Object)) {
	t.Helper()
	typ, _ := fx.db.cat.TypeByName(typeName)
	obj, err := fx.db.ReadObject(oid, typ)
	if err != nil {
		t.Fatal(err)
	}
	change(obj)
	if err := fx.db.WriteObject(oid, obj); err != nil {
		t.Fatal(err)
	}
}

// TestRepair damages one kind of derived state (or none) behind the
// manager's back, next to a second, separate path that shares the case's
// first link. Repair must report the damage as found — except on the clean
// database — leave nothing behind, restore the replicated values, and leave
// a structure that propagates later updates, reference moves included.
func TestRepair(t *testing.T) {
	collapsed := []catalog.PathOption{catalog.WithCollapsed()}
	for _, c := range []struct {
		name     string
		path     string
		strategy catalog.Strategy
		opts     []catalog.PathOption
		field    string
		want     schema.Value // e0's replicated field after the repair
		corrupt  func(t *testing.T, fx *repairFixture, p *catalog.Path)
	}{
		{"clean", "Emp1.dept.name", catalog.InPlace, nil, "name", str("toys"), nil},
		{"stale hidden value", "Emp1.dept.name", catalog.InPlace, nil, "name", str("toys"),
			func(t *testing.T, fx *repairFixture, p *catalog.Path) {
				fx.rewrite(t, "EMP", fx.emps[0], func(o *schema.Object) { o.SetHidden(p.ID, p.Fields[0].Idx, str("stale")) })
			}},
		{"missing link structure", "Emp1.dept.name", catalog.InPlace, nil, "name", str("toys"),
			func(t *testing.T, fx *repairFixture, p *catalog.Path) {
				fx.rewrite(t, "DEPT", fx.d1, func(o *schema.Object) { o.RemoveLink(p.Links[0].ID) })
			}},
		{"spurious referrer", "Emp1.dept.name", catalog.InPlace, nil, "name", str("toys"),
			func(t *testing.T, fx *repairFixture, p *catalog.Path) {
				// A department no employee references lists a fabricated one.
				d3 := fx.db.insert("Dept", map[string]schema.Value{"name": str("ghost"), "budget": num(0), "org": ref(fx.org)})
				fake := pagefile.OID{File: 99, Page: 7, Slot: 3}
				fx.rewrite(t, "DEPT", d3, func(o *schema.Object) {
					o.SetLink(schema.LinkPair{LinkID: p.Links[0].ID, Mode: schema.LinkModeInline, Inline: []pagefile.OID{fake}})
				})
			}},
		{"damaged sprime group", "Emp1.dept.budget", catalog.Separate, nil, "budget", num(100),
			func(t *testing.T, fx *repairFixture, p *catalog.Path) {
				// The S′ object's value, the terminal's refcount and a
				// source's hidden S′ reference, all at once.
				g := p.Group
				deptType, _ := fx.db.cat.TypeByName("DEPT")
				d, err := fx.db.ReadObject(fx.d1, deptType)
				if err != nil {
					t.Fatal(err)
				}
				se := d.FindSep(g.ID)
				sobj, err := fx.db.mgr.ReadSPrime(g, se.SOID, nil)
				if err != nil {
					t.Fatal(err)
				}
				sobj.Values[g.Fields[0].Idx] = num(-1)
				gf, err := fx.db.GroupFile(g)
				if err != nil {
					t.Fatal(err)
				}
				if err := gf.Update(se.SOID, sobj.Encode()); err != nil {
					t.Fatal(err)
				}
				fx.rewrite(t, "DEPT", fx.d1, func(o *schema.Object) {
					o.SetSep(schema.SepEntry{GroupID: g.ID, SOID: se.SOID, RefCount: 42})
				})
				fx.rewrite(t, "EMP", fx.emps[0], func(o *schema.Object) {
					o.SetHidden(g.ID, catalog.HiddenSPrimeIdx, ref(pagefile.OID{File: 99, Page: 1, Slot: 1}))
				})
			}},
		{"stale sprime entry", "Emp1.dept.budget", catalog.Separate, nil, "budget", num(100),
			func(t *testing.T, fx *repairFixture, p *catalog.Path) {
				// A department no employee references holds a leftover entry
				// a later registration would adopt.
				d3 := fx.db.insert("Dept", map[string]schema.Value{"name": str("empty"), "budget": num(1), "org": ref(fx.org)})
				fx.rewrite(t, "DEPT", d3, func(o *schema.Object) {
					o.SetSep(schema.SepEntry{GroupID: p.Group.ID, SOID: pagefile.OID{File: 99, Page: 2, Slot: 2}, RefCount: 7})
				})
			}},
		{"collapsed tags and markers", "Emp1.dept.org.name", catalog.InPlace, collapsed, "name", str("exo"),
			func(t *testing.T, fx *repairFixture, p *catalog.Path) {
				// The terminal's tagged link object pair and one
				// intermediate's marker pair.
				fx.rewrite(t, "ORG", fx.org, func(o *schema.Object) { o.RemoveLink(p.CollapsedLink.ID) })
				fx.rewrite(t, "DEPT", fx.d1, func(o *schema.Object) { o.RemoveLink(p.CollapsedLink.ID) })
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fx := newRepairFixture(t)
			p := fx.db.replicate(c.path, c.strategy, c.opts...)
			fx.db.replicate("Emp1.dept.org.budget", catalog.Separate)
			if c.corrupt != nil {
				c.corrupt(t, fx, p)
			}
			// The harness's LinkFile and GroupFile create the fresh files.
			rep, err := fx.db.mgr.Repair(func() error { return nil })
			if err != nil {
				t.Fatalf("Repair: %v", err)
			}
			if clean := c.corrupt == nil; clean != (len(rep.Found) == 0) {
				t.Fatalf("Repair found %v", rep.Found)
			}
			if !rep.Clean() {
				t.Fatalf("Repair left %v", rep.Remaining)
			}
			if fx.db.cat.NeedsRederive() {
				t.Fatal("a finished Repair left the rederive flag set")
			}
			fx.db.verify()
			if got := fx.db.replicated(p, "Emp1", fx.emps[0], c.field); got != c.want {
				t.Fatalf("replicated %s after repair = %v, want %v", c.field, got, c.want)
			}
			if p.Collapsed {
				deptType, _ := fx.db.cat.TypeByName("DEPT")
				d, err := fx.db.ReadObject(fx.d1, deptType)
				if err != nil {
					t.Fatal(err)
				}
				if lp := d.FindLink(p.CollapsedLink.ID); lp == nil || lp.Mode != schema.LinkModeInline {
					t.Fatal("intermediate marker not restored")
				}
			}
			// The rebuilt structures propagate updates.
			if err := fx.db.update("Org", fx.org, map[string]schema.Value{"name": str("megacorp"), "budget": num(1)}); err != nil {
				t.Fatal(err)
			}
			if err := fx.db.update("Dept", fx.d1, map[string]schema.Value{"name": str("games"), "budget": num(111)}); err != nil {
				t.Fatal(err)
			}
			if err := fx.db.update("Emp1", fx.emps[2], map[string]schema.Value{"dept": ref(fx.d1)}); err != nil {
				t.Fatal(err)
			}
			// A collapsed path re-routes d1's sources by its marker.
			org2 := fx.db.insert("Org", map[string]schema.Value{"name": str("acme"), "budget": num(7)})
			if err := fx.db.update("Dept", fx.d1, map[string]schema.Value{"org": ref(org2)}); err != nil {
				t.Fatal(err)
			}
			fx.db.verify()
			if p.Collapsed {
				if got := fx.db.replicated(p, "Emp1", fx.emps[0], c.field); got != str("acme") {
					t.Fatalf("replicated %s after moving d1 = %v, want acme", c.field, got)
				}
			}
		})
	}
}
