package btree

import (
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Iterator walks entries in ascending (key, OID) order. It keeps a private
// copy of the leaf it is visiting and decodes one entry per Next, so it holds
// no pins between Next calls and tolerates the pool being reset mid-scan
// (subsequent leaves are re-read).
type Iterator struct {
	t        *Tree
	leaf     pagefile.Page // entries pos..n of the current leaf, at their page offsets
	pos, n   int
	nextPage uint32
	err      error
}

// SeekGE positions an iterator at the first entry whose key is >= key.
func (t *Tree) SeekGE(key Key) (*Iterator, error) {
	it := new(Iterator)
	if err := t.seek(it, entry{key: key}); err != nil {
		return nil, err
	}
	return it, nil
}

// First positions an iterator at the smallest entry.
func (t *Tree) First() (*Iterator, error) { return t.SeekGE(MinKey) }

// seek descends to the leaf that holds the first entry >= e and positions it
// there.
func (t *Tree) seek(it *Iterator, e entry) error {
	m, err := t.loadMeta()
	if err != nil {
		return err
	}
	pageNo := m.root
	for level := m.height; level > 1; level-- {
		err := t.readNode(pageNo, func(n node) error {
			pageNo = n.childAt(n.descendPos(e))
			return nil
		})
		if err != nil {
			return err
		}
	}
	it.t = t
	return it.loadLeaf(pageNo, &e)
}

// loadLeaf reads leaf pageNo, positions the iterator at its first entry >=
// *from (its first entry when from is nil), and copies the entries from
// there on into the private page.
func (it *Iterator) loadLeaf(pageNo uint32, from *entry) error {
	return it.t.readNode(pageNo, func(n node) error {
		it.pos, it.n = 0, n.nkeys()
		if from != nil {
			it.pos = n.leafSearch(*from)
		}
		it.nextPage = n.next()
		lo, hi := nodeBody+it.pos*leafEntrySz, nodeBody+it.n*leafEntrySz
		copy(it.leaf[lo:hi], n.p[lo:hi])
		return nil
	})
}

// Next returns the next entry. ok is false when the iterator is exhausted or
// an error occurred; check Err afterwards.
func (it *Iterator) Next() (Key, pagefile.OID, bool) {
	for it.pos >= it.n {
		if it.nextPage == noPage {
			return Key{}, pagefile.OID{}, false
		}
		if err := it.loadLeaf(it.nextPage, nil); err != nil {
			it.err = err
			return Key{}, pagefile.OID{}, false
		}
	}
	e := node{p: &it.leaf}.leafEntry(it.pos)
	it.pos++
	return e.key, e.oid, true
}

// Err reports any error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Range calls fn for every entry with lo <= key <= hi, in order. fn returning
// false stops the scan early.
func (t *Tree) Range(lo, hi Key, fn func(Key, pagefile.OID) bool) error {
	var it Iterator // stays on the stack: a range allocates nothing itself
	if err := t.seek(&it, entry{key: lo}); err != nil {
		return err
	}
	for {
		k, oid, ok := it.Next()
		if !ok {
			return it.Err()
		}
		if CompareKeys(k, hi) > 0 {
			return nil
		}
		if !fn(k, oid) {
			return nil
		}
	}
}

// Lookup returns all OIDs stored under exactly key, in OID order.
func (t *Tree) Lookup(key Key) ([]pagefile.OID, error) {
	var oids []pagefile.OID
	err := t.Range(key, key, func(_ Key, oid pagefile.OID) bool {
		oids = append(oids, oid)
		return true
	})
	return oids, err
}

// Contains reports whether the exact (key, oid) pair is present.
func (t *Tree) Contains(key Key, oid pagefile.OID) (bool, error) {
	found := false
	err := t.Range(key, key, func(_ Key, o pagefile.OID) bool {
		if o == oid {
			found = true
			return false
		}
		return true
	})
	return found, err
}
