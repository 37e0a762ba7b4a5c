package btree

import (
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Iterator walks entries in ascending (key, OID) order. It copies each leaf's
// entries while visiting it, so it holds no pins between Next calls and
// tolerates the pool being reset mid-scan (subsequent leaves are re-read).
type Iterator struct {
	t        *Tree
	entries  []entry
	pos      int
	nextPage uint32
	err      error
}

// SeekGE positions an iterator at the first entry whose key is >= key.
func (t *Tree) SeekGE(key Key) (*Iterator, error) {
	return t.seek(entry{key: key, oid: pagefile.OID{}})
}

// First positions an iterator at the smallest entry.
func (t *Tree) First() (*Iterator, error) { return t.SeekGE(MinKey) }

func (t *Tree) seek(e entry) (*Iterator, error) {
	m, err := t.loadMeta()
	if err != nil {
		return nil, err
	}
	pageNo := m.root
	for level := m.height; level > 1; level-- {
		h, err := t.page(pageNo)
		if err != nil {
			return nil, err
		}
		n, nerr := asNode(h.Page())
		if nerr != nil {
			h.Unpin()
			return nil, nerr
		}
		pageNo = n.childAt(n.descendPos(e))
		h.Unpin()
	}
	it := &Iterator{t: t}
	if err := it.loadLeaf(pageNo); err != nil {
		return nil, err
	}
	// Position within the leaf.
	lo, hi := 0, len(it.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntries(it.entries[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.pos = lo
	return it, nil
}

func (it *Iterator) loadLeaf(pageNo uint32) error {
	h, err := it.t.page(pageNo)
	if err != nil {
		return err
	}
	defer h.Unpin()
	n, err := asNode(h.Page())
	if err != nil {
		return err
	}
	k := n.nkeys()
	it.entries = it.entries[:0]
	for i := 0; i < k; i++ {
		it.entries = append(it.entries, n.leafEntry(i))
	}
	it.pos = 0
	it.nextPage = n.next()
	return nil
}

// Next returns the next entry. ok is false when the iterator is exhausted or
// an error occurred; check Err afterwards.
func (it *Iterator) Next() (Key, pagefile.OID, bool) {
	for it.pos >= len(it.entries) {
		if it.nextPage == noPage {
			return Key{}, pagefile.OID{}, false
		}
		if err := it.loadLeaf(it.nextPage); err != nil {
			it.err = err
			return Key{}, pagefile.OID{}, false
		}
	}
	e := it.entries[it.pos]
	it.pos++
	return e.key, e.oid, true
}

// Err reports any error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Range calls fn for every entry with lo <= key <= hi, in order. fn returning
// false stops the scan early.
func (t *Tree) Range(lo, hi Key, fn func(Key, pagefile.OID) bool) error {
	it, err := t.SeekGE(lo)
	if err != nil {
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
