package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Entry is one (key, OID) pair of an index, the unit Load takes.
type Entry struct {
	Key Key
	OID pagefile.OID
}

// Compare orders entries the way the tree does: by key bytes, then by OID.
// The key halves compare as big-endian words, which is byte order; sorting an
// index's worth of entries spends its time here.
func (a Entry) Compare(b Entry) int {
	if c := cmp.Compare(binary.BigEndian.Uint64(a.Key[:8]), binary.BigEndian.Uint64(b.Key[:8])); c != 0 {
		return c
	}
	if c := cmp.Compare(binary.BigEndian.Uint64(a.Key[8:]), binary.BigEndian.Uint64(b.Key[8:])); c != 0 {
		return c
	}
	return a.OID.Compare(b.OID)
}

// Bulk-load fill: nodes are written nine-tenths full. A tree loaded full
// would split a leaf on the first insert into every key range; one loaded at
// the half-full floor of Validate would be what ascending-key inserts leave
// behind. Nine tenths is the usual middle, and it is a constant because no
// caller has a reason to ask for anything else: DML after the load moves
// leaves toward the ~69% steady state of random inserts whatever the start.
const (
	loadFillNum = 9
	loadFillDen = 10
)

// Load fills an empty tree bottom-up from entries, which must be strictly
// ascending in (key, OID) order: leaves are written left to right at the
// bulk-load fill, then each level of parents over the level below, so every
// page is written once. ErrExists reports an adjacent duplicate pair, like
// Insert; an out-of-order or non-empty-tree call is a caller bug reported as
// an error before anything is written.
func (t *Tree) Load(entries []Entry) error {
	if err := t.guardWrite(); err != nil {
		return err
	}
	m, err := t.loadMeta()
	if err != nil {
		return err
	}
	if m.count != 0 || m.height != 1 {
		return fmt.Errorf("btree: bulk load into non-empty tree %s (%d entries)", t.name, m.count)
	}
	for i := 1; i < len(entries); i++ {
		switch c := entries[i-1].Compare(entries[i]); {
		case c == 0:
			return fmt.Errorf("%w: key=%x oid=%v", ErrExists, entries[i].Key, entries[i].OID)
		case c > 0:
			return fmt.Errorf("btree: bulk load entries out of order at %d", i)
		}
	}
	if len(entries) == 0 {
		return nil
	}

	// level holds, for each node of the level just written, its page and the
	// smallest entry of its subtree — the separator its parent files it under.
	type child struct {
		min  entry
		page uint32
	}
	var level []child
	var prev *buffer.Handle // the previous leaf, pinned until its sibling link is known
	pos := 0
	for i, size := range loadSizes(len(entries), t.leafCap, t.minLeaf()) {
		var h *buffer.Handle
		page := m.root // the empty root leaf becomes the leftmost leaf
		if i == 0 {
			h, err = t.pageW(page)
		} else {
			h, page, err = t.allocNode(&m, true)
		}
		if err != nil {
			if prev != nil {
				prev.Unpin()
			}
			return err
		}
		n := node{p: h.Page()}
		for j, e := range entries[pos : pos+size] {
			n.setLeafEntry(j, entry{e.Key, e.OID})
		}
		n.setNKeys(size)
		h.MarkDirty()
		if prev != nil {
			node{p: prev.Page()}.setNext(page)
			prev.Unpin()
		}
		prev = h
		level = append(level, child{min: entry{entries[pos].Key, entries[pos].OID}, page: page})
		pos += size
	}
	prev.Unpin()

	for len(level) > 1 {
		// A node with k separators has k+1 children, so the sizes are drawn in
		// children: one more than the separator capacity and minimum.
		var parents []child
		pos := 0
		for _, size := range loadSizes(len(level), t.intCap+1, t.minInt()+1) {
			h, page, err := t.allocNode(&m, false)
			if err != nil {
				return err
			}
			n := node{p: h.Page()}
			n.setChild0(level[pos].page)
			for j, c := range level[pos+1 : pos+size] {
				n.setIntEntry(j, c.min, c.page)
			}
			n.setNKeys(size - 1)
			h.MarkDirty()
			h.Unpin()
			parents = append(parents, child{min: level[pos].min, page: page})
			pos += size
		}
		level = parents
		m.height++
	}
	m.root = level[0].page
	m.count = uint64(len(entries))
	return t.storeMeta(m)
}

// loadSizes splits n items into consecutive nodes of the bulk-load fill of
// max, with the tail rebalanced so that no node but a lone root falls below
// min: a short remainder joins the node before it when the two fit in one,
// and otherwise the last two share their items evenly (together they exceed
// max, so each half reaches max/2 >= min).
func loadSizes(n, max, min int) []int {
	per := max * loadFillNum / loadFillDen
	sizes := make([]int, 0, n/per+1)
	for ; n > per; n -= per {
		sizes = append(sizes, per)
	}
	if last := len(sizes) - 1; last >= 0 && n < min {
		if n += sizes[last]; n <= max {
			sizes[last] = n
			return sizes
		}
		sizes[last] = n - n/2
		n /= 2
	}
	return append(sizes, n)
}
