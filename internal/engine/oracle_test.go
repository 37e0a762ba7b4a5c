package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/exodb/fieldrepl/internal/btree"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/plan"
	"github.com/exodb/fieldrepl/internal/schema"
)

// oracle is the row interpreter the compiled row program replaced, kept as
// the differential reference: it decodes every record and resolves every
// expression by name, per record, probing the catalog as it goes. It carries
// the one semantic fix the program made — a broken reference chain yields the
// zero value of the terminal field's kind on every route.
type oracle struct {
	s     *sess
	set   string
	objs  map[pagefile.OID]*schema.Object // nil: no fusion
	terms map[oracleKey]schema.Value
}

type oracleKey struct {
	oid  pagefile.OID
	expr string
}

// oracleQuery executes q the old way in a read session of its own and returns
// the rows with the session's trace record. The planner is the engine's, so
// both sides take the same access path and pay the same statistics pins.
func oracleQuery(t *testing.T, db *DB, q Query) ([]Row, obs.Record) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	tr := db.obs.Start(obs.KindQuery, q.Set, "oracle")
	s := db.readSess(tr)
	o := &oracle{s: s, set: q.Set}
	if !q.NoFuse {
		o.objs = make(map[pagefile.OID]*schema.Object)
		o.terms = make(map[oracleKey]schema.Value)
	}
	typ, err := db.cat.SetType(q.Set)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := db.compileQuery(q, false)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	decision, ix := s.planQuery(q, prog)

	var rows []Row
	process := func(oid pagefile.OID, obj *schema.Object) error {
		preds := q.Filters
		if q.Where != nil {
			preds = append([]Pred{*q.Where}, preds...)
		}
		for i := range preds {
			ok, err := o.evalPred(obj, &preds[i])
			if err != nil || !ok {
				return err
			}
		}
		row := Row{OID: oid, Values: make([]schema.Value, len(q.Project))}
		for i, expr := range q.Project {
			if row.Values[i], err = o.resolveExpr(obj, expr); err != nil {
				return err
			}
		}
		rows = append(rows, row)
		return nil
	}
	if decision.Access == plan.IndexRange && ix != nil {
		tree, snapshot, ok := s.treeView(ix.Name)
		if !ok {
			t.Fatalf("oracle: no view of index %s", ix.Name)
		}
		lo, hi := keyRange(q.Where.Op, q.Where.Value, q.Where.Value2)
		var oids []pagefile.OID
		if snapshot {
			oids, err = s.snapshotIndexRange(nil, q.Set, ix, tree, lo, hi)
		} else {
			err = tree.Range(lo, hi, func(_ btree.Key, oid pagefile.OID) bool {
				oids = append(oids, oid)
				return true
			})
		}
		for i := 0; err == nil && i < len(oids); i++ {
			var obj *schema.Object
			if obj, err = s.readObject(oids[i], typ); err == nil {
				err = process(oids[i], obj)
			}
		}
	} else {
		var file *heap.File
		if file, err = s.SetFile(q.Set); err == nil {
			err = file.Scan(func(oid pagefile.OID, payload []byte) error {
				obj, err := schema.Decode(typ, payload)
				if err != nil {
					return err
				}
				return process(oid, obj)
			})
		}
	}
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return rows, db.obs.Finish(tr)
}

func (o *oracle) evalPred(obj *schema.Object, p *Pred) (bool, error) {
	v, err := o.resolveExpr(obj, p.Expr)
	if err != nil {
		return false, err
	}
	c, err := compareValues(v, p.Value)
	if err != nil {
		return false, err
	}
	switch p.Op {
	case OpEQ:
		return c == 0, nil
	case OpLT:
		return c < 0, nil
	case OpLE:
		return c <= 0, nil
	case OpGT:
		return c > 0, nil
	case OpGE:
		return c >= 0, nil
	case OpBetween:
		c2, err := compareValues(v, p.Value2)
		return c >= 0 && c2 <= 0, err
	}
	return false, fmt.Errorf("oracle: operator %v", p.Op)
}

// resolveExpr resolves expr against obj by name: exact in-place path, exact
// separate path, longest replicated reference prefix, full functional join.
func (o *oracle) resolveExpr(obj *schema.Object, expr string) (schema.Value, error) {
	cat := o.s.db.cat
	parts := strings.Split(expr, ".")
	refs, field := parts[:len(parts)-1], parts[len(parts)-1]
	if len(refs) == 0 {
		v, ok := obj.Get(field)
		if !ok {
			return schema.Value{}, fmt.Errorf("oracle: no field %q", field)
		}
		return v, nil
	}
	// The terminal field's kind, for broken chains.
	cur := obj.Type
	for _, r := range refs {
		f, _ := cur.Field(r)
		cur, _ = cat.TypeByName(f.RefType)
	}
	tf, _ := cur.Field(field)
	zero := schema.Zero(tf.Kind)

	spec := catalog.PathSpec{Source: o.set, Refs: refs, Field: field}
	for _, strategy := range []catalog.Strategy{catalog.InPlace, catalog.Separate} {
		if p, ok := cat.FindPath(spec, strategy); ok {
			return o.replicated(p, obj, field)
		}
	}
	for k := len(refs) - 1; k >= 1; k-- {
		p, ok := cat.FindPath(catalog.PathSpec{Source: o.set, Refs: refs[:k], Field: refs[k]}, catalog.InPlace)
		if !ok {
			continue
		}
		hidden, err := o.replicated(p, obj, refs[k])
		if err != nil {
			return schema.Value{}, err
		}
		if hidden.Kind != schema.KindRef {
			continue
		}
		termField, _ := p.TerminalType().Field(p.Spec.Field)
		startType, _ := cat.TypeByName(termField.RefType)
		return o.memoized(hidden.R, expr, zero, func() (schema.Value, error) {
			start, err := o.readFused(hidden.R, startType)
			if err != nil {
				return schema.Value{}, err
			}
			return o.walk(start, refs[k+1:], field, zero)
		})
	}
	v0, _ := obj.Get(refs[0])
	return o.memoized(v0.R, expr, zero, func() (schema.Value, error) { return o.walk(obj, refs, field, zero) })
}

// memoized resolves a walk departing from oid through the {oid, expr} memo.
func (o *oracle) memoized(oid pagefile.OID, expr string, zero schema.Value, walk func() (schema.Value, error)) (schema.Value, error) {
	if oid.IsNil() {
		return zero, nil
	}
	k := oracleKey{oid, expr}
	if v, hit := o.terms[k]; hit {
		return v, nil
	}
	v, err := walk()
	if err == nil && o.terms != nil {
		o.terms[k] = v
	}
	return v, err
}

func (o *oracle) walk(obj *schema.Object, refs []string, field string, zero schema.Value) (schema.Value, error) {
	cur := obj
	for _, r := range refs {
		f, _ := cur.Type.Field(r)
		v, _ := cur.Get(r)
		if v.R.IsNil() {
			return zero, nil
		}
		nextType, _ := o.s.db.cat.TypeByName(f.RefType)
		next, err := o.readFused(v.R, nextType)
		if err != nil {
			return schema.Value{}, err
		}
		cur = next
	}
	v, _ := cur.Get(field)
	return v, nil
}

func (o *oracle) readFused(oid pagefile.OID, typ *schema.Type) (*schema.Object, error) {
	if obj, hit := o.objs[oid]; hit {
		return obj, nil
	}
	obj, err := o.s.readObject(oid, typ)
	if err == nil && o.objs != nil {
		o.objs[oid] = obj
	}
	return obj, err
}

func (o *oracle) replicated(p *catalog.Path, obj *schema.Object, field string) (schema.Value, error) {
	fields := p.Fields
	if p.Strategy == catalog.Separate {
		fields = p.Group.Fields
	}
	for _, f := range fields {
		if f.Name == field {
			return o.s.mgr.ReadReplicated(p, obj, f.Idx, o.s.tr)
		}
	}
	return schema.Value{}, fmt.Errorf("oracle: path %s does not replicate %q", p.Spec, field)
}

// ---- the differential test ------------------------------------------------

// diffDB is a random four-level reference chain A0 -> A1 -> A2 -> A3: every
// level's type has one to three scalar fields of random kinds in a random
// position relative to its reference attribute r, about a tenth of the
// references are null, and values are drawn from small domains so predicates
// select and targets are shared.
type diffDB struct {
	db      *DB
	scalars [4][]schema.Field
	oids    [4][]pagefile.OID
}

func diffSet(level int) string { return fmt.Sprintf("A%d", level) }

func diffValue(rng *rand.Rand, k schema.Kind) schema.Value {
	switch k {
	case schema.KindInt:
		return num(int64(rng.Intn(6)))
	case schema.KindFloat:
		return schema.FloatValue(float64(rng.Intn(6)) / 2)
	default:
		return str(strings.Repeat("v", rng.Intn(3)) + fmt.Sprint(rng.Intn(6)))
	}
}

func buildDiffDB(t *testing.T, rng *rand.Rand, cfg Config) *diffDB {
	t.Helper()
	d := defineDiffDB(t, rng, cfg)
	d.load(t, rng, 10)
	return d
}

// defineDiffDB opens a database and declares the random types and the four
// sets, empty.
func defineDiffDB(t *testing.T, rng *rand.Rand, cfg Config) *diffDB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	d := &diffDB{db: db}
	kinds := []schema.Kind{schema.KindInt, schema.KindString, schema.KindFloat}
	for level := 3; level >= 0; level-- {
		for i := 0; i < 1+rng.Intn(3); i++ {
			d.scalars[level] = append(d.scalars[level], schema.Field{Name: fmt.Sprintf("f%d", i), Kind: kinds[rng.Intn(len(kinds))]})
		}
		fields := append([]schema.Field(nil), d.scalars[level]...)
		if level < 3 {
			at := rng.Intn(len(fields) + 1)
			fields = append(fields[:at:at], append([]schema.Field{{Name: "r", Kind: schema.KindRef, RefType: fmt.Sprintf("T%d", level+1)}}, fields[at:]...)...)
		}
		if err := db.DefineType(fmt.Sprintf("T%d", level), fields); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateSet(diffSet(level), fmt.Sprintf("T%d", level)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// load inserts the objects, terminals first; one reference in nullEvery is
// null (0: none).
func (d *diffDB) load(t *testing.T, rng *rand.Rand, nullEvery int) {
	t.Helper()
	for _, lv := range []struct{ level, n int }{{3, 5}, {2, 12}, {1, 40}, {0, 600}} {
		for i := 0; i < lv.n; i++ {
			vals := map[string]schema.Value{}
			for _, f := range d.scalars[lv.level] {
				vals[f.Name] = diffValue(rng, f.Kind)
			}
			if lv.level < 3 && (nullEvery == 0 || rng.Intn(nullEvery) > 0) {
				targets := d.oids[lv.level+1]
				vals["r"] = ref(targets[rng.Intn(len(targets))])
			}
			oid, err := d.db.Insert(diffSet(lv.level), vals)
			if err != nil {
				t.Fatal(err)
			}
			d.oids[lv.level] = append(d.oids[lv.level], oid)
		}
	}
}

// expr returns a random expression of the given depth from A0.
func (d *diffDB) expr(rng *rand.Rand, depth int) (string, schema.Kind) {
	f := d.scalars[depth][rng.Intn(len(d.scalars[depth]))]
	return strings.Repeat("r.", depth) + f.Name, f.Kind
}

func (d *diffDB) pred(rng *rand.Rand, depth int) Pred {
	expr, kind := d.expr(rng, depth)
	p := Pred{Expr: expr, Op: Op(rng.Intn(int(OpBetween) + 1)), Value: diffValue(rng, kind), Value2: diffValue(rng, kind)}
	if p.Op == OpBetween {
		if c, _ := compareValues(p.Value, p.Value2); c > 0 {
			p.Value, p.Value2 = p.Value2, p.Value
		}
	}
	return p
}

func sortedRows(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].OID.Less(out[j].OID) })
	return out
}

func sameRows(a, b []Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, oracle has %d", len(a), len(b))
	}
	for i := range a {
		if a[i].OID != b[i].OID {
			return fmt.Errorf("row %d is %v, oracle has %v", i, a[i].OID, b[i].OID)
		}
		for j := range a[i].Values {
			if !a[i].Values[j].Equal(b[i].Values[j]) {
				return fmt.Errorf("row %d (%v) column %d = %v, oracle has %v", i, a[i].OID, j, a[i].Values[j], b[i].Values[j])
			}
		}
	}
	return nil
}

// TestRowProgramMatchesOracle runs random queries over random schemas through
// the compiled row program and through the by-name interpreter it replaced:
// the rows must be identical and so must the pages each side touched (buffer
// hits + misses, store reads) — the program may neither add nor drop a page
// fetch. Covered: paths of depth 0-3, every resolution route (plain, exact
// in-place, exact separate, replicated reference prefix, full walk) including
// a deferred path that the first query must drain, null references at every
// level, records forwarded by the replication that widened them, scan and
// index access, fusion on and off, ScanWorkers 1 and 4, both store kinds.
func TestRowProgramMatchesOracle(t *testing.T) {
	routes := map[plan.PathKind]int{}
	indexed, forwarded, drained := 0, 0, 0
	seeds := int64(8)
	if testing.Short() {
		seeds = 4 // one per {store kind} x {ScanWorkers}
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{PoolPages: 256, ScanWorkers: []int{1, 4}[seed%2]}
		if seed%4 < 2 {
			cfg.Dir = t.TempDir()
		}
		d := buildDiffDB(t, rng, cfg)
		db := d.db

		// Replicate after loading, so the hidden values widen stored records
		// and some of them move: one exact path per strategy, one replicated
		// reference attribute, one deferred path.
		e1, _ := d.expr(rng, 1+rng.Intn(3))
		e2, _ := d.expr(rng, 1+rng.Intn(3))
		e3, _ := d.expr(rng, 2)
		prefix := "r." + strings.Repeat("r.", rng.Intn(2)) + "r" // A0.r.r or A0.r.r.r
		for _, r := range []struct {
			path     string
			strategy catalog.Strategy
			opts     []catalog.PathOption
		}{
			{e1, catalog.InPlace, nil},
			{e2, catalog.Separate, nil},
			{prefix, catalog.InPlace, nil},
			{e3, catalog.InPlace, []catalog.PathOption{catalog.WithDeferred()}},
		} {
			err := db.Replicate("A0."+r.path, r.strategy, r.opts...)
			if err != nil && !errors.Is(err, catalog.ErrPathExists) {
				t.Fatalf("seed %d: replicate %s: %v", seed, r.path, err)
			}
		}
		if st, err := db.files[mustSet(t, db, "A0").FileID].Stats(); err == nil {
			forwarded += st.Forwarded
		}
		// Indexes the planner may pick: a base field and the in-place path.
		if err := db.BuildIndex("ix_base", "A0", d.scalars[0][0].Name, false); err != nil {
			t.Fatal(err)
		}
		if err := db.BuildIndex("ix_path", "A0", e1, false); err != nil {
			t.Fatal(err)
		}
		verifyDB(t, db)

		for n := 0; n < 60; n++ {
			q := Query{Set: "A0", NoFuse: rng.Intn(4) == 0, ForceScan: rng.Intn(3) == 0}
			if rng.Intn(8) > 0 {
				where := d.pred(rng, rng.Intn(4))
				if rng.Intn(3) == 0 {
					// Steer some predicates onto the indexed expressions.
					where.Expr = []string{d.scalars[0][0].Name, e1}[rng.Intn(2)]
					kind := d.scalars[0][0].Kind
					if where.Expr == e1 {
						_, kind = exprKind(t, db, e1)
					}
					where.Value, where.Value2 = diffValue(rng, kind), diffValue(rng, kind)
					if c, _ := compareValues(where.Value, where.Value2); c > 0 {
						where.Value, where.Value2 = where.Value2, where.Value
					}
				}
				q.Where = &where
			}
			for i := rng.Intn(3); i > 0; i-- {
				q.Filters = append(q.Filters, d.pred(rng, rng.Intn(4)))
			}
			for i := 1 + rng.Intn(3); i > 0; i-- {
				e, _ := d.expr(rng, rng.Intn(4))
				q.Project = append(q.Project, e)
			}
			if n%10 == 0 {
				// Queue deferred propagation: the next query through e3 drains.
				level := 2
				target := d.oids[level][rng.Intn(len(d.oids[level]))]
				f := e3[strings.LastIndex(e3, ".")+1:]
				_, kind := exprKind(t, db, e3)
				if err := db.Update(diffSet(level), target, map[string]schema.Value{f: diffValue(rng, kind)}); err != nil {
					t.Fatal(err)
				}
				q.Project = append(q.Project, e3)
			}

			pending := db.PendingPropagations()
			res, rec, err := db.Query(nil, q)
			if err != nil {
				t.Fatalf("seed %d query %d %+v: %v", seed, n, q, err)
			}
			if pending > 0 && db.PendingPropagations() == 0 {
				drained++
			}
			if n%10 == 0 {
				// The first run drained in a write session; compare the pages
				// of a second, read-session run.
				if res, rec, err = db.Query(nil, q); err != nil {
					t.Fatal(err)
				}
			}
			want, wantRec := oracleQuery(t, db, q)
			got := res.Rows
			if cfg.ScanWorkers > 1 && res.UsedIndex == "" {
				got = sortedRows(got)
			}
			if err := sameRows(got, want); err != nil {
				t.Fatalf("seed %d query %d %+v (%s): %v", seed, n, q, res.Decision.Access, err)
			}
			if rec.Hits+rec.Misses != wantRec.Hits+wantRec.Misses || rec.StoreReads != wantRec.StoreReads {
				t.Fatalf("seed %d query %d %+v (%s): touched %d pages (%d store reads), oracle %d (%d)",
					seed, n, q, res.Decision.Access, rec.Hits+rec.Misses, rec.StoreReads, wantRec.Hits+wantRec.Misses, wantRec.StoreReads)
			}
			if res.UsedIndex != "" {
				indexed++
			}
			for _, e := range q.Project {
				route, _ := exprKind(t, db, e)
				routes[route]++
			}
		}
		verifyDB(t, db)
	}
	// The generator must have reached every route and both access paths.
	for _, k := range []plan.PathKind{plan.PathInPlace, plan.PathSeparate, plan.PathFused} {
		if routes[k] == 0 {
			t.Errorf("no query resolved a path as %v", k)
		}
	}
	if indexed == 0 {
		t.Error("no query used an index")
	}
	if forwarded == 0 {
		t.Error("no source record was forwarded")
	}
	if drained == 0 {
		t.Error("no query drained deferred propagation")
	}
}

// TestWalkedPredicatesMatchOracle aims the differential check at the per-worker
// verdicts of fused walks: predicates EQ / LT / GE / BETWEEN on string and int
// terminals, two walked predicates in one query and two on one expression,
// null references and chains broken one level further, departures into two
// sets of the same type (the departure table's fallback), and — once Emp.dept.org
// is replicated — the same walks departing from the hidden reference of a
// collapsed prefix. Each query runs with fusion on and off, at ScanWorkers 1
// and 4, on both stores; rows and pages touched must equal the oracle's.
func TestWalkedPredicatesMatchOracle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			onBothStores(t, func(t *testing.T, dir string) { checkWalkedPredicates(t, dir, workers) })
		})
	}
}

func checkWalkedPredicates(t *testing.T, dir string, workers int) {
	db, err := Open(Config{Dir: dir, PoolPages: 256, ScanWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadTwoSetChain(t, db)
	queries := []Query{
		{Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("org-03")}},
		{Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("")}},
		{Where: &Pred{Expr: "dept.org.name", Op: OpBetween, Value: str("org-02"), Value2: str("org-05")}},
		{Where: &Pred{Expr: "dept.org.budget", Op: OpLT, Value: num(3)}},
		{Where: &Pred{Expr: "dept.org.budget", Op: OpGE, Value: num(2)},
			Filters: []Pred{{Expr: "dept.org.budget", Op: OpLT, Value: num(4)}}},
		{Where: &Pred{Expr: "dept.name", Op: OpGE, Value: str("dept-050")},
			Filters: []Pred{{Expr: "dept.org.budget", Op: OpBetween, Value: num(1), Value2: num(3)}}},
		{Where: &Pred{Expr: "dept.name", Op: OpEQ, Value: str("")}},
		{Where: &Pred{Expr: "salary", Op: OpLT, Value: num(700)},
			Filters: []Pred{{Expr: "dept.org.name", Op: OpLT, Value: str("org-06")}}},
	}
	typ, _ := db.cat.SetType("Emp")
	for _, collapsed := range []bool{false, true} {
		if collapsed {
			if err := db.Replicate("Emp.dept.org", catalog.InPlace); err != nil {
				t.Fatal(err)
			}
			verifyDB(t, db)
		}
		a, err := compileAccessor(db.cat, "Emp", typ, "dept.org.name")
		if err != nil || a.route != plan.PathFused || (a.path != nil) != collapsed {
			t.Fatalf("dept.org.name compiles to %v (collapsed %v), %v", a.route, a.path != nil, err)
		}
		for i, q := range queries {
			q.Set = "Emp"
			q.Project = []string{"name", "dept.org.name", "dept.org.budget", "dept.name"}
			for _, noFuse := range []bool{false, true} {
				q.NoFuse = noFuse
				res, rec, err := db.Query(nil, q)
				if err != nil {
					t.Fatalf("query %d (collapsed %v, no-fuse %v): %v", i, collapsed, noFuse, err)
				}
				want, wantRec := oracleQuery(t, db, q)
				if err := sameRows(sortedRows(res.Rows), sortedRows(want)); err != nil {
					t.Fatalf("query %d (collapsed %v, no-fuse %v): %v", i, collapsed, noFuse, err)
				}
				if rec.Hits+rec.Misses != wantRec.Hits+wantRec.Misses || rec.StoreReads != wantRec.StoreReads {
					t.Fatalf("query %d (collapsed %v, no-fuse %v): touched %d pages (%d store reads), oracle %d (%d)",
						i, collapsed, noFuse, rec.Hits+rec.Misses, rec.StoreReads, wantRec.Hits+wantRec.Misses, wantRec.StoreReads)
				}
			}
		}
	}
}

// loadTwoSetChain loads Emp -> DEPT -> ORG where each of DEPT and ORG has two
// sets (Dept and DeptB, Org and OrgB), so the departures of one expression lie
// in two files. One employee in 25 has no department and one department in 10
// has no organisation.
func loadTwoSetChain(t *testing.T, db *DB) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineType("ORG", []schema.Field{{Name: "name", Kind: schema.KindString}, {Name: "budget", Kind: schema.KindInt}}))
	must(db.DefineType("DEPT", []schema.Field{{Name: "name", Kind: schema.KindString}, {Name: "org", Kind: schema.KindRef, RefType: "ORG"}}))
	must(db.DefineType("EMP", []schema.Field{{Name: "name", Kind: schema.KindString}, {Name: "salary", Kind: schema.KindInt},
		{Name: "dept", Kind: schema.KindRef, RefType: "DEPT"}}))
	for _, s := range []struct{ set, typ string }{{"Org", "ORG"}, {"OrgB", "ORG"}, {"Dept", "DEPT"}, {"DeptB", "DEPT"}, {"Emp", "EMP"}} {
		must(db.CreateSet(s.set, s.typ))
	}
	rng := rand.New(rand.NewSource(7))
	load := func(sets []string, n int, vals func(i int) map[string]schema.Value) []pagefile.OID {
		txn, err := db.BeginSets(nil, sets...)
		must(err)
		oids := make([]pagefile.OID, n)
		for i := range oids {
			oids[i], err = txn.Insert(sets[i%len(sets)], vals(i))
			must(err)
		}
		must(txn.Commit())
		return oids
	}
	orgs := load([]string{"Org", "OrgB"}, 12, func(i int) map[string]schema.Value {
		return map[string]schema.Value{"name": str(fmt.Sprintf("org-%02d", i)), "budget": num(int64(i % 5))}
	})
	depts := load([]string{"Dept", "DeptB"}, 120, func(i int) map[string]schema.Value {
		v := map[string]schema.Value{"name": str(fmt.Sprintf("dept-%03d", i))}
		if i%10 != 0 {
			v["org"] = ref(orgs[rng.Intn(len(orgs))])
		}
		return v
	})
	load([]string{"Emp"}, 1500, func(i int) map[string]schema.Value {
		v := map[string]schema.Value{"name": str(fmt.Sprintf("emp-%04d", i)), "salary": num(int64(i))}
		if i%25 != 0 {
			v["dept"] = ref(depts[rng.Intn(len(depts))])
		}
		return v
	})
}

// TestDepartureTable exercises the departure table's layout: the first file's
// OIDs, the zero OID included, in pages and slots grown on first use, and
// another file's in the fallback map.
func TestDepartureTable(t *testing.T) {
	var d departures[int]
	zero := pagefile.OID{}
	if _, ok := d.get(zero); ok {
		t.Fatal("an empty table holds the zero OID")
	}
	d.put(zero, 1)
	if v, ok := d.get(zero); !ok || v != 1 {
		t.Fatalf("zero OID: %d, %v", v, ok)
	}
	at := func(page uint32, slot uint16) pagefile.OID { return pagefile.OID{Page: page, Slot: slot} }
	d.put(at(5, 2), 52)
	if len(d.pages) != 6 || d.pages[3] != nil || len(d.pages[5]) != 3 {
		t.Fatalf("after page 5 slot 2: %d pages, page 3 %v, page 5 %d slots", len(d.pages), d.pages[3], len(d.pages[5]))
	}
	for _, oid := range []pagefile.OID{at(3, 0), at(5, 1), at(5, 3), at(6, 0)} {
		if _, ok := d.get(oid); ok {
			t.Fatalf("%v found, never put", oid)
		}
	}
	d.put(at(5, 40), 540)
	d.put(at(5, 2), 520)
	for oid, want := range map[pagefile.OID]int{zero: 1, at(5, 2): 520, at(5, 40): 540} {
		if v, ok := d.get(oid); !ok || v != want {
			t.Fatalf("%v: %d, %v; want %d", oid, v, ok, want)
		}
	}
	if d.other != nil {
		t.Fatal("first-file OIDs went to the fallback map")
	}
	other := pagefile.OID{File: 9, Page: 5, Slot: 2}
	if _, ok := d.get(other); ok {
		t.Fatalf("%v found, never put", other)
	}
	d.put(other, 952)
	if v, ok := d.get(other); !ok || v != 952 || len(d.other) != 1 {
		t.Fatalf("second file: %d, %v, %d in the fallback map", v, ok, len(d.other))
	}
	if v, ok := d.get(at(5, 2)); !ok || v != 520 {
		t.Fatalf("first file after a second: %d, %v", v, ok)
	}
}

func mustSet(t *testing.T, db *DB, name string) *catalog.Set {
	t.Helper()
	set, ok := db.cat.SetByName(name)
	if !ok {
		t.Fatalf("no set %s", name)
	}
	return set
}

// exprKind compiles expr from A0 and returns its accessor's route and kind.
func exprKind(t *testing.T, db *DB, expr string) (plan.PathKind, schema.Kind) {
	t.Helper()
	typ, _ := db.cat.SetType("A0")
	a, err := compileAccessor(db.cat, "A0", typ, expr)
	if err != nil {
		t.Fatal(err)
	}
	return a.route, a.kind
}
