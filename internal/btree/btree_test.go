package btree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

func newTree(t *testing.T, opts ...Option) *Tree {
	t.Helper()
	store := pagefile.NewMemStore()
	t.Cleanup(func() { store.Close() })
	pool := buffer.New(store, 64)
	tr, err := Create(pool, "idx", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func oidFor(i int) pagefile.OID {
	return pagefile.OID{File: 1, Page: uint32(i / 100), Slot: uint16(i % 100)}
}

func TestInsertLookupSmall(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 10; i++ {
		if err := tr.Insert(Int64Key(int64(i*10)), oidFor(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		oids, err := tr.Lookup(Int64Key(int64(i * 10)))
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		if len(oids) != 1 || oids[0] != oidFor(i) {
			t.Fatalf("Lookup %d = %v", i, oids)
		}
	}
	if oids, _ := tr.Lookup(Int64Key(5)); len(oids) != 0 {
		t.Fatalf("Lookup missing key returned %v", oids)
	}
	if c, _ := tr.Count(); c != 10 {
		t.Fatalf("Count = %d", c)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateKeysAllowed(t *testing.T) {
	tr := newTree(t)
	key := Int64Key(42)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(key, oidFor(i)); err != nil {
			t.Fatalf("Insert dup %d: %v", i, err)
		}
	}
	oids, err := tr.Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 50 {
		t.Fatalf("Lookup returned %d oids, want 50", len(oids))
	}
	for i := 1; i < len(oids); i++ {
		if !oids[i-1].Less(oids[i]) {
			t.Fatal("duplicate OIDs not in order")
		}
	}
	// The exact same (key, oid) pair is rejected.
	if err := tr.Insert(key, oidFor(7)); !errors.Is(err, ErrExists) {
		t.Fatalf("exact duplicate insert: %v, want ErrExists", err)
	}
}

func TestSplitsAndOrderLargeSequential(t *testing.T) {
	tr := newTree(t, WithCapacities(8, 8))
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(Int64Key(int64(i)), oidFor(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	h, _ := tr.Height()
	if h < 3 {
		t.Fatalf("height = %d with cap 8 and %d keys, expected >= 3", h, n)
	}
	it, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k, oid, ok := it.Next()
		if !ok {
			t.Fatalf("iterator ended at %d", i)
		}
		if Int64FromKey(k) != int64(i) || oid != oidFor(i) {
			t.Fatalf("entry %d = (%d, %v)", i, Int64FromKey(k), oid)
		}
	}
	if _, _, ok := it.Next(); ok {
		t.Fatal("iterator did not end")
	}
}

func TestInsertDescendingAndRandom(t *testing.T) {
	for name, order := range map[string]func(n int) []int{
		"descending": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = n - 1 - i
			}
			return out
		},
		"random": func(n int) []int {
			out := rand.New(rand.NewSource(5)).Perm(n)
			return out
		},
	} {
		t.Run(name, func(t *testing.T) {
			tr := newTree(t, WithCapacities(6, 6))
			const n = 2000
			for _, v := range order(n) {
				if err := tr.Insert(Int64Key(int64(v)), oidFor(v)); err != nil {
					t.Fatalf("Insert %d: %v", v, err)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			it, _ := tr.First()
			prev := int64(-1)
			count := 0
			for {
				k, _, ok := it.Next()
				if !ok {
					break
				}
				v := Int64FromKey(k)
				if v != prev+1 {
					t.Fatalf("gap in iteration: %d after %d", v, prev)
				}
				prev = v
				count++
			}
			if count != n {
				t.Fatalf("iterated %d entries, want %d", count, n)
			}
		})
	}
}

func TestDeleteSimple(t *testing.T) {
	tr := newTree(t)
	key := Int64Key(1)
	if err := tr.Insert(key, oidFor(0)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(key, oidFor(0)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if oids, _ := tr.Lookup(key); len(oids) != 0 {
		t.Fatal("entry survives delete")
	}
	if err := tr.Delete(key, oidFor(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if c, _ := tr.Count(); c != 0 {
		t.Fatalf("Count = %d after delete", c)
	}
}

func TestDeleteWithRebalance(t *testing.T) {
	tr := newTree(t, WithCapacities(4, 4))
	const n = 1000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, v := range perm {
		if err := tr.Insert(Int64Key(int64(v)), oidFor(v)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete in a different random order, validating periodically.
	perm2 := rand.New(rand.NewSource(8)).Perm(n)
	for i, v := range perm2 {
		if err := tr.Delete(Int64Key(int64(v)), oidFor(v)); err != nil {
			t.Fatalf("Delete %d: %v", v, err)
		}
		if i%50 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if c, _ := tr.Count(); c != 0 {
		t.Fatalf("Count = %d after deleting all", c)
	}
	if h, _ := tr.Height(); h != 1 {
		t.Fatalf("height = %d after deleting all, want 1", h)
	}
	// The tree is still usable: reinsert.
	for i := 0; i < 100; i++ {
		if err := tr.Insert(Int64Key(int64(i)), oidFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeScan(t *testing.T) {
	tr := newTree(t, WithCapacities(8, 8))
	for i := 0; i < 500; i++ {
		if err := tr.Insert(Int64Key(int64(i)), oidFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	err := tr.Range(Int64Key(100), Int64Key(199), func(k Key, _ pagefile.OID) bool {
		got = append(got, Int64FromKey(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Fatalf("range [100,199] returned %d entries, first=%v last=%v", len(got), got[0], got[len(got)-1])
	}
	// Early stop.
	n := 0
	tr.Range(Int64Key(0), Int64Key(499), func(Key, pagefile.OID) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop scanned %d", n)
	}
	// Empty range.
	n = 0
	tr.Range(Int64Key(1000), Int64Key(2000), func(Key, pagefile.OID) bool { n++; return true })
	if n != 0 {
		t.Fatalf("empty range returned %d entries", n)
	}
}

func TestContains(t *testing.T) {
	tr := newTree(t)
	tr.Insert(Int64Key(5), oidFor(1))
	tr.Insert(Int64Key(5), oidFor(2))
	if ok, _ := tr.Contains(Int64Key(5), oidFor(2)); !ok {
		t.Fatal("Contains missed present entry")
	}
	if ok, _ := tr.Contains(Int64Key(5), oidFor(3)); ok {
		t.Fatal("Contains found absent entry")
	}
}

// TestRandomizedAgainstModel performs mixed inserts and deletes, comparing
// against a reference map and validating invariants.
// modelPair is one (key, OID) entry of randomModelTree's in-memory model.
type modelPair struct {
	k int64
	o pagefile.OID
}

// randomModelTree builds a small-capacity tree by a seeded random mix of
// inserts (duplicate keys included) and deletes, checking every step against
// an in-memory model, and returns the tree with the model's entries in
// ascending (key, OID) order.
func randomModelTree(t *testing.T) (*Tree, []modelPair) {
	t.Helper()
	tr := newTree(t, WithCapacities(5, 5))
	rng := rand.New(rand.NewSource(123))
	model := map[modelPair]bool{}
	var live []modelPair

	for step := 0; step < 6000; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			k := int64(rng.Intn(500)) // small key space forces duplicates
			p := modelPair{k: k, o: oidFor(rng.Intn(10000))}
			err := tr.Insert(Int64Key(p.k), p.o)
			if model[p] {
				if !errors.Is(err, ErrExists) {
					t.Fatalf("step %d: duplicate insert err = %v", step, err)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: insert err = %v", step, err)
				}
				model[p] = true
				live = append(live, p)
			}
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := tr.Delete(Int64Key(p.k), p.o); err != nil {
				t.Fatalf("step %d: delete err = %v", step, err)
			}
			delete(model, p)
		}
		if step%500 == 499 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].k != live[j].k {
			return live[i].k < live[j].k
		}
		return live[i].o.Compare(live[j].o) < 0
	})
	return tr, live
}

func TestRandomizedAgainstModel(t *testing.T) {
	tr, model := randomModelTree(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if c, _ := tr.Count(); int(c) != len(model) {
		t.Fatalf("Count = %d, model = %d", c, len(model))
	}
	// Full content check via iteration.
	it, _ := tr.First()
	seen := 0
	for {
		k, oid, ok := it.Next()
		if !ok {
			break
		}
		if seen >= len(model) || (modelPair{k: Int64FromKey(k), o: oid}) != model[seen] {
			t.Fatalf("iterator entry %d = (%d, %v), model disagrees", seen, Int64FromKey(k), oid)
		}
		seen++
	}
	if seen != len(model) {
		t.Fatalf("iterated %d, model %d", seen, len(model))
	}
}

func TestDefaultCapacityTreeLarge(t *testing.T) {
	// Full-page nodes: 20k entries still give a shallow tree.
	tr := newTree(t)
	const n = 20000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, v := range perm {
		if err := tr.Insert(Int64Key(int64(v)), oidFor(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	h, _ := tr.Height()
	if h > 3 {
		t.Fatalf("height = %d for %d keys at default capacity, expected <= 3", h, n)
	}
}

func TestOpenExistingTree(t *testing.T) {
	store := pagefile.NewMemStore()
	defer store.Close()
	pool := buffer.New(store, 64)
	tr, err := Create(pool, "reopen", WithCapacities(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		tr.Insert(Int64Key(int64(i)), oidFor(i))
	}
	pool.FlushAll()
	tr2, err := Open(pool, tr.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Name() != "reopen" {
		t.Fatalf("Name = %q", tr2.Name())
	}
	if oids, _ := tr2.Lookup(Int64Key(250)); len(oids) != 1 {
		t.Fatal("reopened tree lost data")
	}
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPageReuseAfterFree(t *testing.T) {
	tr := newTree(t, WithCapacities(4, 4))
	for i := 0; i < 500; i++ {
		tr.Insert(Int64Key(int64(i)), oidFor(i))
	}
	for i := 0; i < 500; i++ {
		tr.Delete(Int64Key(int64(i)), oidFor(i))
	}
	pagesAfterDelete, _ := tr.pool.Store().NumPages(tr.FileID())
	for i := 0; i < 500; i++ {
		tr.Insert(Int64Key(int64(i)), oidFor(i))
	}
	pagesAfterReinsert, _ := tr.pool.Store().NumPages(tr.FileID())
	if pagesAfterReinsert > pagesAfterDelete {
		t.Fatalf("reinsert grew file from %d to %d pages; free list not reused", pagesAfterDelete, pagesAfterReinsert)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// filePages copies every page of fid out of the pool.
func filePages(t *testing.T, pool *buffer.Pool, fid pagefile.FileID) []pagefile.Page {
	t.Helper()
	n, err := pool.Store().NumPages(fid)
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]pagefile.Page, n)
	for i := range pages {
		h, err := pool.Get(pagefile.PageID{File: fid, Page: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		pages[i] = *h.Page()
		h.Unpin()
	}
	return pages
}

// A capture view must register every page before it modifies it — splits,
// borrows, merges, frees and free-chain reuse included — or rollback leaves
// the modification behind. Each operation runs in its own scope against the
// same tree and is rolled back (one scope for all would let an early
// registration of a page hide a later unregistered write to it); afterwards
// every page the tree had must be byte-identical and every page the scope
// allocated must be empty.
func TestCaptureViewRollbackRestoresEveryPage(t *testing.T) {
	store := pagefile.NewMemStore()
	t.Cleanup(func() { store.Close() })
	pool := buffer.New(store, 2048)
	tr, err := Create(pool, "idx", WithCapacities(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 160
	live := rng.Perm(n)
	for _, v := range live {
		if err := tr.Insert(Int64Key(int64(v)), oidFor(v)); err != nil {
			t.Fatal(err)
		}
	}
	files := map[pagefile.FileID]bool{tr.FileID(): true}
	cv := tr.WithCapture(nil)

	var before []pagefile.Page
	rolledBack := func(op string, v int, run func() error) {
		t.Helper()
		pool.BeginScope()
		if err := run(); err != nil {
			t.Fatalf("%s %d: %v", op, v, err)
		}
		if err := pool.RollbackScope(files); err != nil {
			t.Fatal(err)
		}
		for i, got := range filePages(t, pool, tr.FileID()) {
			want := pagefile.Page{}
			if i < len(before) {
				want = before[i]
			}
			if got != want {
				t.Fatalf("%s %d: page %d differs after rollback", op, v, i)
			}
		}
	}
	inserts := func() {
		for v := n; v < 2*n; v++ {
			// Off the key range's end and into its middle.
			key := int64(v)
			if v%2 == 0 {
				key = int64(rng.Intn(n))
			}
			rolledBack("insert", v, func() error { return cv.Insert(Int64Key(key), oidFor(v)) })
		}
	}

	// A full tree with no free chain: splits allocate fresh pages.
	before = filePages(t, pool, tr.FileID())
	inserts()
	if after := filePages(t, pool, tr.FileID()); len(after) == len(before) {
		t.Fatal("no insert allocated a page; the test is not exercising fresh-page splits")
	}

	// Deleting a quarter leaves sparse nodes and a free chain: deletes borrow
	// and merge, splits reuse freed pages.
	for _, v := range live[:n/4] {
		if err := tr.Delete(Int64Key(int64(v)), oidFor(v)); err != nil {
			t.Fatal(err)
		}
	}
	before = filePages(t, pool, tr.FileID())
	for _, v := range live[n/4:] {
		rolledBack("delete", v, func() error { return cv.Delete(Int64Key(int64(v)), oidFor(v)) })
	}
	inserts()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
