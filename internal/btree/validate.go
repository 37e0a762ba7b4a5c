package btree

import (
	"fmt"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Validate checks the structural invariants of the tree and returns the
// first violation found. It is used by tests, including property-based
// tests that validate after randomized operation sequences. Checked:
//
//   - every leaf is at the same depth (height)
//   - entries within every node are strictly increasing in (key, OID)
//   - every entry in a subtree lies within the separator bounds
//   - every non-root node holds at least its minimum fill
//   - the leaf sibling chain visits exactly the leaves, in order
//   - the entry count in the meta page matches the actual count
func (t *Tree) Validate() error {
	m, err := t.loadMeta()
	if err != nil {
		return err
	}
	v := &validator{t: t}
	minEnt := entry{key: MinKey, oid: pagefile.OID{}}
	maxEnt := entry{key: MaxKey, oid: pagefile.OID{File: ^pagefile.FileID(0), Page: ^uint32(0), Slot: ^uint16(0)}}
	if err := v.walk(m.root, m.height, minEnt, maxEnt, true); err != nil {
		return err
	}
	if v.count != m.count {
		return fmt.Errorf("btree: meta count %d != actual %d", m.count, v.count)
	}
	// Verify the sibling chain: leaves discovered by the walk, in order,
	// must match the chain from the leftmost leaf.
	if len(v.leaves) > 0 {
		page := v.leaves[0]
		for i := 0; ; i++ {
			if i >= len(v.leaves) {
				return fmt.Errorf("btree: sibling chain longer than leaf set")
			}
			if v.leaves[i] != page {
				return fmt.Errorf("btree: sibling chain order mismatch at %d: %d != %d", i, page, v.leaves[i])
			}
			var next uint32
			err := t.readNode(page, func(n node) error {
				next = n.next()
				return nil
			})
			if err != nil {
				return err
			}
			if next == noPage {
				if i != len(v.leaves)-1 {
					return fmt.Errorf("btree: sibling chain ends early at leaf %d of %d", i+1, len(v.leaves))
				}
				break
			}
			page = next
		}
	}
	return nil
}

type validator struct {
	t      *Tree
	count  uint64
	leaves []uint32
}

func (v *validator) walk(pageNo uint32, level int, lo, hi entry, isRoot bool) error {
	// Collect separators and children inside the read, then recurse after it
	// so the pool needs only O(height) frames even during validation.
	var seps []entry
	var children []uint32
	err := v.t.readNode(pageNo, func(n node) error {
		k := n.nkeys()
		if level == 1 {
			if !n.isLeaf() {
				return fmt.Errorf("btree: node %d at leaf level is internal", pageNo)
			}
			if !isRoot && k < v.t.minLeaf() {
				return fmt.Errorf("btree: leaf %d underfull: %d < %d", pageNo, k, v.t.minLeaf())
			}
			prev := lo
			for i := 0; i < k; i++ {
				e := n.leafEntry(i)
				if i == 0 {
					if compareEntries(e, lo) < 0 {
						return fmt.Errorf("btree: leaf %d entry 0 below lower bound", pageNo)
					}
				} else if compareEntries(prev, e) >= 0 {
					return fmt.Errorf("btree: leaf %d entries out of order at %d", pageNo, i)
				}
				if compareEntries(e, hi) >= 0 {
					return fmt.Errorf("btree: leaf %d entry %d at or above upper bound", pageNo, i)
				}
				prev = e
			}
			v.count += uint64(k)
			v.leaves = append(v.leaves, pageNo)
			return nil
		}
		if n.isLeaf() {
			return fmt.Errorf("btree: node %d at level %d is a leaf", pageNo, level)
		}
		if !isRoot && k < v.t.minInt() {
			return fmt.Errorf("btree: internal %d underfull: %d < %d", pageNo, k, v.t.minInt())
		}
		if isRoot && k < 1 {
			return fmt.Errorf("btree: internal root %d has no separators", pageNo)
		}
		seps = make([]entry, k)
		children = make([]uint32, k+1)
		children[0] = n.child0()
		for i := 0; i < k; i++ {
			seps[i], children[i+1] = n.intEntry(i)
		}
		return nil
	})
	if err != nil || level == 1 {
		return err
	}
	k := len(seps)
	for i := 1; i < k; i++ {
		if compareEntries(seps[i-1], seps[i]) >= 0 {
			return fmt.Errorf("btree: internal %d separators out of order at %d", pageNo, i)
		}
	}
	for i := 0; i <= k; i++ {
		clo, chi := lo, hi
		if i > 0 {
			clo = seps[i-1]
		}
		if i < k {
			chi = seps[i]
			if compareEntries(chi, lo) < 0 || compareEntries(chi, hi) >= 0 {
				return fmt.Errorf("btree: internal %d separator %d outside bounds", pageNo, i)
			}
		}
		if err := v.walk(children[i], level-1, clo, chi, false); err != nil {
			return err
		}
	}
	return nil
}
