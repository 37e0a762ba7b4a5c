package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// loadEntries returns n ascending entries over n/3+1 distinct keys, so most
// keys carry several OIDs.
func loadEntries(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: Int64Key(int64(i / 3)), OID: oidFor(i)}
	}
	return es
}

// dump reads every observable of a tree the planner and executor use.
func dump(t *testing.T, tr *Tree, probes []Key) string {
	t.Helper()
	var all []Entry
	if err := tr.Range(MinKey, MaxKey, func(k Key, oid pagefile.OID) bool {
		all = append(all, Entry{k, oid})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	count, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok, err := tr.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("count=%d bounds=%x..%x/%v all=%v", count, lo, hi, ok, all)
	for _, k := range probes {
		oids, err := tr.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf(" %x=%v", k, oids)
	}
	return out
}

// TestLoadMatchesSequentialInserts is the bulk load's contract: for every
// size around the node capacities, and for trees several levels deep, a
// loaded tree answers Range, Lookup, Count and Bounds exactly as one built by
// the same entries inserted one at a time, and passes Validate.
func TestLoadMatchesSequentialInserts(t *testing.T) {
	for _, caps := range [][2]int{{4, 4}, {5, 4}, {7, 6}, {maxLeafCap, maxIntCap}} {
		leaf, inner := caps[0], caps[1]
		per := leaf * loadFillNum / loadFillDen
		sizes := []int{0, 1, 2, per - 1, per, per + 1, leaf - 1, leaf, leaf + 1, 2 * per, 2*per + 1,
			per*(inner+1) - 1, per*(inner+1) + 1, per * (inner + 1) * (inner + 1), 1000}
		for _, n := range sizes {
			if n < 0 || n > 20000 { // three full levels of default-capacity nodes would be 2.5M entries
				continue
			}
			es := loadEntries(n)
			loaded := newTree(t, WithCapacities(leaf, inner))
			if err := loaded.Load(es); err != nil {
				t.Fatalf("caps %v n=%d: Load: %v", caps, n, err)
			}
			if err := loaded.Validate(); err != nil {
				t.Fatalf("caps %v n=%d: Validate: %v", caps, n, err)
			}
			inserted := newTree(t, WithCapacities(leaf, inner))
			for _, e := range es {
				if err := inserted.Insert(e.Key, e.OID); err != nil {
					t.Fatal(err)
				}
			}
			probes := []Key{Int64Key(-1), Int64Key(0), Int64Key(int64(n / 6)), Int64Key(int64(n / 3)), Int64Key(int64(n))}
			if got, want := dump(t, loaded, probes), dump(t, inserted, probes); got != want {
				t.Fatalf("caps %v n=%d: loaded tree differs from inserted tree\n got %s\nwant %s", caps, n, got, want)
			}
		}
	}
}

// TestLoadFillAndHeight pins the density the load leaves: every leaf but the
// rebalanced tail holds exactly nine tenths of its capacity.
func TestLoadFillAndHeight(t *testing.T) {
	tr := newTree(t)
	n := 100000
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: Int64Key(int64(i)), OID: oidFor(i)}
	}
	if err := tr.Load(es); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	pages, err := tr.pool.Store().NumPages(tr.fid)
	if err != nil {
		t.Fatal(err)
	}
	per := maxLeafCap * loadFillNum / loadFillDen
	leaves := (n + per - 1) / per
	if min, max := uint32(leaves+2), uint32(leaves+leaves/100+3); pages < min || pages > max {
		t.Fatalf("%d entries loaded into %d pages, want %d..%d (%d leaves of %d)", n, pages, min, max, leaves, per)
	}
	if h, _ := tr.Height(); h != 3 {
		t.Fatalf("height %d, want 3", h)
	}
}

// TestLoadThenRandomDML checks that a loaded tree is an ordinary tree: random
// inserts and deletes split, borrow and merge its nine-tenths-full nodes and
// every intermediate state validates and matches a model.
func TestLoadThenRandomDML(t *testing.T) {
	for _, caps := range [][2]int{{4, 4}, {8, 5}} {
		tr := newTree(t, WithCapacities(caps[0], caps[1]))
		es := loadEntries(500)
		if err := tr.Load(es); err != nil {
			t.Fatal(err)
		}
		model := map[Entry]bool{}
		for _, e := range es {
			model[e] = true
		}
		rng := rand.New(rand.NewSource(int64(caps[0])))
		for step := 0; step < 3000; step++ {
			e := Entry{Key: Int64Key(int64(rng.Intn(200))), OID: oidFor(rng.Intn(600))}
			if rng.Intn(2) == 0 {
				err := tr.Insert(e.Key, e.OID)
				if model[e] != errors.Is(err, ErrExists) || (!model[e] && err != nil) {
					t.Fatalf("step %d: Insert(%v) = %v, present %v", step, e, err, model[e])
				}
				model[e] = true
			} else {
				err := tr.Delete(e.Key, e.OID)
				if model[e] == errors.Is(err, ErrNotFound) || (model[e] && err != nil) {
					t.Fatalf("step %d: Delete(%v) = %v, present %v", step, e, err, model[e])
				}
				delete(model, e)
			}
			if step%50 == 0 {
				if err := tr.Validate(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		var want []Entry
		for e := range model {
			want = append(want, e)
		}
		slices.SortFunc(want, Entry.Compare)
		var got []Entry
		if err := tr.Range(MinKey, MaxKey, func(k Key, oid pagefile.OID) bool {
			got = append(got, Entry{k, oid})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("caps %v: tree holds %d entries, model %d", caps, len(got), len(want))
		}
	}
}

// TestLoadRejectsBadInput checks the refusals: nothing is written for a
// duplicate pair, an out-of-order run, or a tree that already holds entries.
func TestLoadRejectsBadInput(t *testing.T) {
	tr := newTree(t, WithCapacities(4, 4))
	dup := loadEntries(10)
	dup[5] = dup[4]
	if err := tr.Load(dup); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate pair: %v, want ErrExists", err)
	}
	swapped := loadEntries(10)
	swapped[2], swapped[7] = swapped[7], swapped[2]
	if err := tr.Load(swapped); err == nil {
		t.Fatal("out-of-order entries accepted")
	}
	if c, _ := tr.Count(); c != 0 {
		t.Fatalf("refused loads left %d entries", c)
	}
	if err := tr.Load(loadEntries(10)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Load(loadEntries(10)); err == nil {
		t.Fatal("load into a non-empty tree accepted")
	}
	if err := tr.WithSnapshot(nil).Load(nil); err == nil {
		t.Fatal("load through a snapshot view accepted")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadReusesFreedPages loads into a tree emptied by deletes: the load
// draws its nodes from the free chain before growing the file.
func TestLoadReusesFreedPages(t *testing.T) {
	tr := newTree(t, WithCapacities(4, 4))
	es := loadEntries(200)
	if err := tr.Load(es); err != nil {
		t.Fatal(err)
	}
	before, _ := tr.pool.Store().NumPages(tr.fid)
	for _, e := range es {
		if err := tr.Delete(e.Key, e.OID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Load(es); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if after, _ := tr.pool.Store().NumPages(tr.fid); after != before {
		t.Fatalf("reload grew the file from %d to %d pages", before, after)
	}
}

// TestEntryCompareIsTreeOrder holds the exported comparator callers sort with
// to the order the nodes keep, over keys that differ in either half, string
// keys included, and equal keys that differ in any OID field.
func TestEntryCompareIsTreeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func() Entry {
		var e Entry
		switch rng.Intn(3) {
		case 0:
			e.Key = Int64Key(int64(rng.Intn(5)) - 2)
		case 1:
			e.Key = StringKey([]string{"", "a", "abcdefgh", "abcdefghi", "abcdefghz", "b"}[rng.Intn(6)])
		default:
			rng.Read(e.Key[:])
		}
		e.OID = pagefile.OID{File: pagefile.FileID(rng.Intn(2)), Page: uint32(rng.Intn(2)), Slot: uint16(rng.Intn(2))}
		return e
	}
	for i := 0; i < 20000; i++ {
		a, b := pick(), pick()
		if got, want := a.Compare(b), compareEntries(entry{a.Key, a.OID}, entry{b.Key, b.OID}); got != want {
			t.Fatalf("Compare(%v, %v) = %d, tree order %d", a, b, got, want)
		}
	}
}
