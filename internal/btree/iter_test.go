package btree

import (
	"sort"
	"testing"
)

// The iterator holds no pin between Next calls: the pool can be reset (which
// fails on any pinned page) before every Next, and the walk still crosses
// every leaf in order, re-reading each from the store.
func TestIteratorSurvivesPoolReset(t *testing.T) {
	tr := newTree(t, WithCapacities(5, 5))
	const n = 40 // at most 5 entries a leaf: at least 8 leaves
	for i := 0; i < n; i++ {
		if err := tr.Insert(Int64Key(int64(i)), oidFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		if err := tr.pool.Reset(); err != nil {
			t.Fatalf("Reset before entry %d: %v", got, err)
		}
		k, oid, ok := it.Next()
		if !ok {
			break
		}
		if Int64FromKey(k) != int64(got) || oid != oidFor(got) {
			t.Fatalf("entry %d = (%d, %v)", got, Int64FromKey(k), oid)
		}
		got++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("iterated %d entries, want %d", got, n)
	}
}

// leafEdges returns the first and last key of every non-empty leaf, left to
// right along the sibling chain.
func leafEdges(t *testing.T, tr *Tree) [][2]int64 {
	t.Helper()
	m, err := tr.loadMeta()
	if err != nil {
		t.Fatal(err)
	}
	pageNo := m.root
	for level := m.height; level > 1; level-- {
		h, err := tr.page(pageNo)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := asNode(h.Page())
		pageNo = n.childAt(0)
		h.Unpin()
	}
	var edges [][2]int64
	for pageNo != noPage {
		h, err := tr.page(pageNo)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := asNode(h.Page())
		if k := n.nkeys(); k > 0 {
			edges = append(edges, [2]int64{Int64FromKey(n.leafEntry(0).key), Int64FromKey(n.leafEntry(k - 1).key)})
		}
		pageNo = n.next()
		h.Unpin()
	}
	return edges
}

// SeekGE on the first and the last key of every leaf, and on a key just past
// a leaf's last entry (where the position falls off the end of the leaf the
// descent reached), yields the model's entries from the first one with a key
// >= the sought key, across the following leaves.
func TestSeekGEAtLeafEdges(t *testing.T) {
	tr, model := randomModelTree(t)
	edges := leafEdges(t, tr)
	if len(edges) < 3 {
		t.Fatalf("%d leaves, want at least 3", len(edges))
	}
	const span = 12 // more than two full leaves of 5
	for _, e := range edges {
		for _, key := range []int64{e[0], e[1], e[1] + 1} {
			it, err := tr.SeekGE(Int64Key(key))
			if err != nil {
				t.Fatal(err)
			}
			i := sort.Search(len(model), func(i int) bool { return model[i].k >= key })
			for j := i; j < i+span; j++ {
				k, oid, ok := it.Next()
				if j == len(model) {
					if ok {
						t.Fatalf("SeekGE(%d): entry (%d, %v) past the model's end", key, Int64FromKey(k), oid)
					}
					break
				}
				if !ok || (modelPair{k: Int64FromKey(k), o: oid}) != model[j] {
					t.Fatalf("SeekGE(%d) entry %d = (%d, %v, %v), model %+v", key, j-i, Int64FromKey(k), oid, ok, model[j])
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
