package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/repl"
	"github.com/exodb/fieldrepl/internal/schema"
)

// loadSection6 loads the paper's Section-6 database, unreplicated and
// unindexed: nS objects of S (200 B) each referenced by f objects of R (100 B)
// through R.sref, the assignment shuffled, field_s a permutation of S's file
// order and field_r ascending or a permutation of R's.
func loadSection6(tb testing.TB, db *DB, nS, f int, ascendingR bool) {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(db.DefineType("STYPE", []schema.Field{
		{Name: "repfield", Kind: schema.KindString},
		{Name: "field_s", Kind: schema.KindInt},
		{Name: "pad", Kind: schema.KindString},
	}))
	must(db.DefineType("RTYPE", []schema.Field{
		{Name: "sref", Kind: schema.KindRef, RefType: "STYPE"},
		{Name: "field_r", Kind: schema.KindInt},
		{Name: "pad", Kind: schema.KindString},
	}))
	must(db.CreateSet("S", "STYPE"))
	must(db.CreateSet("R", "RTYPE"))
	rng := rand.New(rand.NewSource(1))
	load := func(set string, n int, vals func(i int) map[string]schema.Value) []pagefile.OID {
		oids := make([]pagefile.OID, n)
		for base := 0; base < n; base += 2000 {
			txn, err := db.BeginSets(nil, set)
			must(err)
			for i := base; i < n && i < base+2000; i++ {
				oids[i], err = txn.Insert(set, vals(i))
				must(err)
			}
			must(txn.Commit())
		}
		return oids
	}
	fieldS := rng.Perm(nS)
	sPad := strings.Repeat("s", 168)
	sOIDs := load("S", nS, func(i int) map[string]schema.Value {
		return map[string]schema.Value{"repfield": str(fmt.Sprintf("r%019d", i)), "field_s": num(int64(fieldS[i])), "pad": str(sPad)}
	})
	nR := nS * f
	fieldR := rng.Perm(nR)
	refs := make([]int, nR)
	for i := range refs {
		refs[i] = i % nS
	}
	rng.Shuffle(nR, func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	rPad := strings.Repeat("r", 90)
	load("R", nR, func(i int) map[string]schema.Value {
		key := fieldR[i]
		if ascendingR {
			key = i
		}
		return map[string]schema.Value{"sref": ref(sOIDs[refs[i]]), "field_r": num(int64(key)), "pad": str(rPad)}
	})
}

// BenchmarkReplicate times the one-time build of R.sref.repfield over the
// Section-6 database at |S| = 2000, f = 10 — the exclusive DDL window, in
// memory so ns/op is the build's own work: the source scan, the sort, one
// write per link object or S′ object and per S and R object.
func BenchmarkReplicate(b *testing.B) {
	for _, strategy := range []catalog.Strategy{catalog.InPlace, catalog.Separate} {
		b.Run(strategy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, err := Open(Config{PoolPages: 4096})
				if err != nil {
					b.Fatal(err)
				}
				loadSection6(b, db, 2000, 10, false)
				b.StartTimer()
				if err := db.Replicate("R.sref.repfield", strategy); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				verifyDB(b, db)
				db.Close()
			}
		})
	}
}

// BenchmarkBuildIndex times BuildIndex on R.field_r of the same database
// (20 000 entries) with the keys in file order and shuffled: the scan, the
// sort and the bottom-up load. pages is the size of the index it leaves.
func BenchmarkBuildIndex(b *testing.B) {
	for _, order := range []string{"ascending", "shuffled"} {
		b.Run(order, func(b *testing.B) {
			var pages uint32
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, err := Open(Config{PoolPages: 4096})
				if err != nil {
					b.Fatal(err)
				}
				loadSection6(b, db, 2000, 10, order == "ascending")
				b.StartTimer()
				if err := db.BuildIndex("r_field_r", "R", "field_r", order == "ascending"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				ix, _ := db.cat.IndexByName("r_field_r")
				pages, _ = db.store.NumPages(ix.FileID)
				db.Close()
			}
			b.ReportMetric(float64(pages), "pages")
		})
	}
}

// TestBuildLayout is the layout gate: what load → BuildIndex → Replicate
// leaves behind on the Section-6 database is as dense as a sorted build can
// make it. Link objects are written once at their final size, so none is
// forwarded and each costs one page to read; indexes are loaded at nine
// tenths, whatever order the keys were stored in. Counts, not timings.
func TestBuildLayout(t *testing.T) {
	for _, strategy := range []catalog.Strategy{catalog.InPlace, catalog.Separate} {
		t.Run(strategy.String(), func(t *testing.T) {
			db, err := Open(Config{PoolPages: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			loadSection6(t, db, 2000, 10, false)
			if err := db.BuildIndex("r_field_r", "R", "field_r", false); err != nil {
				t.Fatal(err)
			}
			if err := db.BuildIndex("s_field_s", "S", "field_s", false); err != nil {
				t.Fatal(err)
			}
			if err := db.Replicate("R.sref.repfield", strategy); err != nil {
				t.Fatal(err)
			}
			verifyDB(t, db)
			for name, tree := range db.trees {
				if err := tree.Validate(); err != nil {
					t.Fatalf("index %s: %v", name, err)
				}
				fill, err := tree.LeafFill()
				if err != nil {
					t.Fatal(err)
				}
				if fill < 0.85 {
					t.Errorf("index %s: average leaf fill %.3f, want >= 0.85", name, fill)
				}
			}
			storage, err := db.ReplicationStorage()
			if err != nil {
				t.Fatal(err)
			}
			if len(storage) != 1 {
				t.Fatalf("%d paths, want 1", len(storage))
			}
			st := storage[0]
			if st.LinkForwarded != 0 || st.SPrimeForwarded != 0 {
				t.Errorf("%d link objects and %d S′ objects forwarded, want 0 and 0", st.LinkForwarded, st.SPrimeForwarded)
			}
			if strategy == catalog.InPlace && (st.LinkObjects != 2000 || st.LinkPages == 0) {
				t.Errorf("%d link objects on %d pages, want one per S object", st.LinkObjects, st.LinkPages)
			}
			if strategy == catalog.Separate && st.SPrimeObjects != 2000 {
				t.Errorf("%d S′ objects, want one per S object", st.SPrimeObjects)
			}
		})
	}
}

// replication is one Replicate call of the equivalence test.
type replication struct {
	path     string
	strategy catalog.Strategy
	opts     []catalog.PathOption
}

// TestBuildMatchesIncrementalRegistration holds the sorted bulk build to the
// per-object maintenance it replaced: over the random four-level schemas of
// TestRowProgramMatchesOracle, loading the data and then replicating (the
// build) must leave what declaring the paths on empty sets and then loading
// (one OnInsert per object) leaves — the same rows for every query through
// the paths, the same number of link objects and S′ objects, and a clean
// VerifyReplication — for every strategy and build variant, on both stores.
func TestBuildMatchesIncrementalRegistration(t *testing.T) {
	in, sep := catalog.InPlace, catalog.Separate
	variants := []struct {
		name      string
		inlineMax int
		nullEvery int
		paths     func(d *diffDB, rng *rand.Rand) []replication
	}{
		{"in-place", 0, 10, func(d *diffDB, rng *rand.Rand) []replication {
			e, _ := d.expr(rng, 1+rng.Intn(3))
			return []replication{{e, in, nil}}
		}},
		{"in-place/no-inlining", -1, 10, func(d *diffDB, rng *rand.Rand) []replication {
			e, _ := d.expr(rng, 1+rng.Intn(3))
			return []replication{{e, in, nil}}
		}},
		{"in-place/inline-8", 8, 10, func(d *diffDB, rng *rand.Rand) []replication {
			e, _ := d.expr(rng, 1+rng.Intn(3))
			return []replication{{e, in, nil}}
		}},
		{"separate", 0, 10, func(d *diffDB, rng *rand.Rand) []replication {
			e, _ := d.expr(rng, 1+rng.Intn(3))
			return []replication{{e, sep, nil}}
		}},
		{"separate/no-inlining", -1, 4, func(d *diffDB, rng *rand.Rand) []replication {
			e, _ := d.expr(rng, 2+rng.Intn(2))
			return []replication{{e, sep, nil}}
		}},
		{"deferred", 0, 10, func(d *diffDB, rng *rand.Rand) []replication {
			e, _ := d.expr(rng, 1+rng.Intn(3))
			return []replication{{e, in, []catalog.PathOption{catalog.WithDeferred()}}}
		}},
		{"collapsed", 0, 0, func(d *diffDB, rng *rand.Rand) []replication {
			e, _ := d.expr(rng, 2)
			return []replication{{e, in, []catalog.PathOption{catalog.WithCollapsed()}}}
		}},
		{"reference-attribute", 0, 10, func(d *diffDB, rng *rand.Rand) []replication {
			return []replication{{"r.r", in, nil}}
		}},
		{"shared-prefix", 0, 10, func(d *diffDB, rng *rand.Rand) []replication {
			// The second and third paths find the links of their first one or
			// two levels already built.
			e1, _ := d.expr(rng, 1)
			e3, _ := d.expr(rng, 3)
			e2, _ := d.expr(rng, 2)
			return []replication{{e1, in, nil}, {e3, in, nil}, {e2, sep, nil}}
		}},
		{"widened-group", 0, 10, func(d *diffDB, rng *rand.Rand) []replication {
			// The second path adds the level's other scalars to the first
			// one's S′ group (or none, when the level has a single scalar).
			depth := 1 + rng.Intn(2)
			e, _ := d.expr(rng, depth)
			return []replication{{e, sep, nil}, {strings.Repeat("r.", depth) + "all", sep, nil}}
		}},
	}
	seeds := int64(4)
	if testing.Short() {
		seeds = 2
	}
	for _, v := range variants {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", v.name, seed), func(t *testing.T) {
				var dbs [2]*diffDB
				var paths []replication
				for i, buildAfterLoad := range []bool{true, false} {
					cfg := Config{PoolPages: 256, InlineMax: v.inlineMax}
					if seed%2 == 0 {
						cfg.Dir = t.TempDir()
					}
					rng := rand.New(rand.NewSource(seed))
					d := defineDiffDB(t, rng, cfg)
					paths = v.paths(d, rand.New(rand.NewSource(seed+100)))
					replicate := func() {
						for _, r := range paths {
							if err := d.db.Replicate("A0."+r.path, r.strategy, r.opts...); err != nil {
								t.Fatalf("replicate %s %s: %v", r.strategy, r.path, err)
							}
						}
					}
					if !buildAfterLoad {
						replicate()
					}
					d.load(t, rng, v.nullEvery)
					if buildAfterLoad {
						replicate()
					}
					verifyDB(t, d.db)
					dbs[i] = d
				}
				built, registered := dbs[0], dbs[1]

				// Every scalar of A0 identifies the row; the path expressions
				// are what the two databases could disagree on. Rows come back
				// in OID order, which is insertion order in both.
				q := Query{Set: "A0"}
				for _, f := range built.scalars[0] {
					q.Project = append(q.Project, f.Name)
				}
				for _, r := range paths {
					if strings.HasSuffix(r.path, ".all") {
						depth := strings.Count(r.path, ".")
						for _, f := range built.scalars[depth] {
							q.Project = append(q.Project, strings.Repeat("r.", depth)+f.Name)
						}
					} else if r.path != "r.r" {
						q.Project = append(q.Project, r.path)
					}
				}
				rng := rand.New(rand.NewSource(seed + 200))
				for n := 0; n < 12; n++ {
					q.Where = nil
					if n > 0 {
						where := built.pred(rng, rng.Intn(4))
						if r := paths[rng.Intn(len(paths))]; n%2 == 0 && !strings.HasSuffix(r.path, ".all") && r.path != "r.r" {
							// Select through a replicated path.
							_, kind := exprKind(t, built.db, r.path)
							where.Expr, where.Value, where.Value2 = r.path, diffValue(rng, kind), diffValue(rng, kind)
							if c, _ := compareValues(where.Value, where.Value2); c > 0 {
								where.Value, where.Value2 = where.Value2, where.Value
							}
						}
						q.Where = &where
					}
					a, _, err := built.db.Query(nil, q)
					if err != nil {
						t.Fatalf("query %+v on the built database: %v", q, err)
					}
					b, _, err := registered.db.Query(nil, q)
					if err != nil {
						t.Fatalf("query %+v on the registered database: %v", q, err)
					}
					if len(a.Rows) != len(b.Rows) {
						t.Fatalf("query %+v: %d rows built, %d registered", q, len(a.Rows), len(b.Rows))
					}
					for i := range a.Rows {
						for j := range a.Rows[i].Values {
							if !a.Rows[i].Values[j].Equal(b.Rows[i].Values[j]) {
								t.Fatalf("query %+v row %d column %s: built %v, registered %v",
									q, i, q.Project[j], a.Rows[i].Values[j], b.Rows[i].Values[j])
							}
						}
					}
					// And the built database agrees with the functional walk.
					want, _ := oracleQuery(t, built.db, q)
					if err := sameRows(a.Rows, want); err != nil {
						t.Fatalf("query %+v on the built database: %v", q, err)
					}
				}
				sa, err := built.db.ReplicationStorage()
				if err != nil {
					t.Fatal(err)
				}
				sb, err := registered.db.ReplicationStorage()
				if err != nil {
					t.Fatal(err)
				}
				for i := range sa {
					if sa[i].LinkObjects != sb[i].LinkObjects || sa[i].SPrimeObjects != sb[i].SPrimeObjects {
						t.Errorf("path %s: built %d link objects and %d S′ objects, registered %d and %d",
							sa[i].Path, sa[i].LinkObjects, sa[i].SPrimeObjects, sb[i].LinkObjects, sb[i].SPrimeObjects)
					}
					if sa[i].LinkForwarded != 0 || sa[i].SPrimeForwarded != 0 {
						t.Errorf("path %s: build left %d link objects and %d S′ objects forwarded",
							sa[i].Path, sa[i].LinkForwarded, sa[i].SPrimeForwarded)
					}
				}
			})
		}
	}
}

// TestBuildIndexFaultLeavesNoIndex injects one I/O fault at every store
// operation of a BuildIndex in turn — page reads of the scan, allocations and
// evictions of the bottom-up load, the closing sync of a logged database. A
// build that fails must leave no catalog entry and no tree, so the same name
// can be built again; the one failure past the load (the sync) leaves a
// complete index. Either way the set still answers, through the index once
// it exists.
func TestBuildIndexFaultLeavesNoIndex(t *testing.T) {
	const nEmps = 1500
	setUp := func(t *testing.T, dir string) (*DB, *pagefile.FaultStore) {
		db, fs := openFaultDB(t, dir, 64)
		defineEmployeeSchema(t, db)
		loadReferrers(t, db, 5, nEmps)
		if err := db.ColdCache(); err != nil {
			t.Fatal(err)
		}
		return db, fs
	}
	check := func(t *testing.T, db *DB, wantIndex bool) {
		t.Helper()
		res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name"},
			Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(100), Value2: num(149)}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 50 || (res.UsedIndex != "") != wantIndex {
			t.Fatalf("%d rows through index %q, want 50 and index use %v", len(res.Rows), res.UsedIndex, wantIndex)
		}
	}
	for _, kind := range []string{"memory", "file"} {
		t.Run(kind, func(t *testing.T) {
			dir := func() string {
				if kind == "file" {
					return t.TempDir()
				}
				return ""
			}
			db, fs := setUp(t, dir())
			before := fs.Ops()
			if err := db.BuildIndex("sal", "Emp1", "salary", false); err != nil {
				t.Fatal(err)
			}
			ops := fs.Ops() - before
			check(t, db, true)
			db.Close()
			if ops < 10 {
				t.Fatalf("the build did only %d store operations", ops)
			}
			failed := 0
			for at := int64(0); at < ops; at++ {
				db, fs := setUp(t, dir())
				fs.AddFault(pagefile.Fault{Index: fs.Ops() + at, Op: pagefile.OpAny})
				err := db.BuildIndex("sal", "Emp1", "salary", false)
				fs.ClearFaults()
				_, registered := db.cat.IndexByName("sal")
				tree, open := db.trees["sal"]
				switch {
				case err == nil:
					t.Fatalf("fault@%d: BuildIndex succeeded", at)
				case registered != open:
					t.Fatalf("fault@%d: catalog entry %v, tree %v", at, registered, open)
				case registered:
					// Only the sync after the load may fail with the index in place.
					if n, _ := tree.Count(); n != nEmps || tree.Validate() != nil {
						t.Fatalf("fault@%d (%v): a partial index of %d entries stayed registered", at, err, n)
					}
				default:
					failed++
					check(t, db, false)
					if err := db.BuildIndex("sal", "Emp1", "salary", false); err != nil {
						t.Fatalf("fault@%d: rebuilding after the failure: %v", at, err)
					}
				}
				check(t, db, true)
				if err := db.trees["sal"].Validate(); err != nil {
					t.Fatalf("fault@%d: %v", at, err)
				}
				db.Close()
			}
			if failed == 0 {
				t.Fatal("no fault failed the build itself")
			}
		})
	}
}

// TestBulkBuildsReachLiveFollower runs BuildIndex and Replicate on a primary
// with a follower attached and streaming. The builds are write sessions like
// any statement: every page they write and every file they create reaches
// the follower as an ordinary log record, and its log counts the same full
// images and deltas as the primary's. The replica must end byte-equal,
// derived files included, answer through the new index and paths, and verify
// clean once promoted.
func TestBulkBuildsReachLiveFollower(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	loadReferrers(t, p, 8, 1200)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, t.TempDir(), addr)
	waitCaughtUp(t, p, f)
	pBefore, _ := p.WALStats()
	fBefore, _ := f.WALStats()

	if err := p.BuildIndex("sal", "Emp1", "salary", true); err != nil {
		t.Fatal(err)
	}
	for _, r := range []replication{
		{"Emp1.dept.name", catalog.InPlace, nil},
		{"Emp1.dept.org.name", catalog.InPlace, nil}, // first link shared with the path above
		{"Emp1.dept.budget", catalog.Separate, nil},
	} {
		if err := p.Replicate(r.path, r.strategy); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.BuildIndex("deptname", "Emp1", "dept.name", false); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, f)
	pAfter, _ := p.WALStats()
	fAfter, _ := f.WALStats()
	pFull, pDelta := pAfter.FullImages-pBefore.FullImages, pAfter.DeltaRecords-pBefore.DeltaRecords
	fFull, fDelta := fAfter.FullImages-fBefore.FullImages, fAfter.DeltaRecords-fBefore.DeltaRecords
	if pFull == 0 || fFull != pFull || fDelta != pDelta {
		t.Fatalf("the builds logged %d full images and %d deltas on the primary, %d and %d on the follower", pFull, pDelta, fFull, fDelta)
	}
	verifyDB(t, p)
	// The follower applies to its store; the primary's pages are still in its
	// pool.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	assertReplicaMatches(t, p, f, "Org", "Dept", "Emp1")
	assertPagesEqual(t, p, f)

	// The derived files, which assertPagesEqual leaves out with the scratch
	// files they share a name prefix with.
	var derived []pagefile.FileID
	for _, name := range []string{"sal", "deptname"} {
		ix, ok := p.cat.IndexByName(name)
		if !ok {
			t.Fatalf("no index %s", name)
		}
		derived = append(derived, ix.FileID)
	}
	for _, l := range p.cat.Links() {
		derived = append(derived, l.FileID)
	}
	for _, g := range p.cat.Groups() {
		derived = append(derived, g.FileID)
	}
	for _, fid := range derived {
		if assertFilePagesEqual(t, p, f, fid) == 0 {
			t.Fatalf("derived file %d is empty", fid)
		}
	}

	q := Query{Set: "Emp1", Project: []string{"name", "dept.name", "dept.org.name", "dept.budget"},
		Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(200), Value2: num(299)}}
	want, _, err := p.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.UsedIndex != "sal" || len(got.Rows) != 100 {
		t.Fatalf("follower answered %d rows through index %q, want 100 through sal", len(got.Rows), got.UsedIndex)
	}
	if err := sameRows(got.Rows, want.Rows); err != nil {
		t.Fatalf("follower rows: %v", err)
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 15*time.Second, "follower to notice the closed primary", func() bool {
		fs := f.ReplicationStatus().Follower
		return fs != nil && !fs.Connected
	})
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	verifyDB(t, f)
	for name, tree := range f.trees {
		if err := tree.Validate(); err != nil {
			t.Fatalf("index %s on the promoted follower: %v", name, err)
		}
	}
}
