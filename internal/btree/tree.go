package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Errors returned by the tree.
var (
	ErrExists   = errors.New("btree: entry already present")
	ErrNotFound = errors.New("btree: entry not found")
)

// Tree is a disk-resident B+tree. It needs a buffer pool with at least
// MinPoolFrames frames (one pinned page per level plus rebalancing room).
// WithTrace returns lightweight views charging page I/O to an obs.Trace;
// all other fields are immutable after Create/Open, so views are safe.
type Tree struct {
	pool *buffer.Pool
	fid  pagefile.FileID
	name string
	tr   *obs.Trace
	mode pinMode

	leafCap int
	intCap  int
}

// pinMode selects how a view pins pages, mirroring the heap's view modes.
type pinMode int

const (
	modePlain    pinMode = iota // direct frame pins (no overlapping write session)
	modeCapture                 // write session: pages join the pool scope before they are modified
	modeSnapshot                // detached committed-state copies, read-only
)

// WithTrace returns a view of the tree whose page I/O is charged to tr in
// addition to the global counters, keeping the receiver's pin mode (so
// re-tracing a capture or snapshot view never strips its isolation). tr may
// be nil (untraced view, often t itself).
func (t *Tree) WithTrace(tr *obs.Trace) *Tree {
	if t == nil || t.tr == tr {
		return t
	}
	v := *t
	v.tr = tr
	return &v
}

// WithCapture returns a write session's view: pages are registered in the
// enclosing pool scope before they are modified. The caller must hold the
// engine's per-set lock covering this index for the lifetime of the view.
func (t *Tree) WithCapture(tr *obs.Trace) *Tree {
	if t == nil {
		return nil
	}
	v := *t
	v.tr = tr
	v.mode = modeCapture
	return &v
}

// WithSnapshot returns a read-only view that reads detached copies of the
// committed state and never blocks on writers.
func (t *Tree) WithSnapshot(tr *obs.Trace) *Tree {
	if t == nil {
		return nil
	}
	v := *t
	v.tr = tr
	v.mode = modeSnapshot
	return &v
}

// guardWrite refuses mutation through a snapshot view: the pinned copies are
// detached from the pool, so the rebalanced pages would be silently
// discarded.
func (t *Tree) guardWrite() error {
	if t.mode == modeSnapshot {
		return fmt.Errorf("btree: write to file %d through a snapshot view", t.fid)
	}
	return nil
}

// page pins one of the tree's pages for reading, charging the tree's trace.
func (t *Tree) page(pageNo uint32) (*buffer.Handle, error) {
	pid := pagefile.PageID{File: t.fid, Page: pageNo}
	if t.mode == modeSnapshot {
		return t.pool.GetSnapshotT(pid, t.tr)
	}
	return t.pool.GetT(pid, t.tr)
}

// willWrite must precede every modification of a pinned page: a capture view
// registers the page in the scope.
func (t *Tree) willWrite(h *buffer.Handle) {
	if t.mode == modeCapture {
		h.Capture()
	}
}

// pageW pins a page the caller is about to modify.
func (t *Tree) pageW(pageNo uint32) (*buffer.Handle, error) {
	h, err := t.page(pageNo)
	if err == nil {
		t.willWrite(h)
	}
	return h, err
}

// MinPoolFrames is the minimum buffer pool size a Tree requires.
const MinPoolFrames = 8

// Option configures tree creation.
type Option func(*Tree)

// WithCapacities overrides node capacities; small values force deep trees
// and exercise split/merge paths in tests. Values below 4 are raised to 4.
func WithCapacities(leafCap, intCap int) Option {
	return func(t *Tree) {
		if leafCap < 4 {
			leafCap = 4
		}
		if intCap < 4 {
			intCap = 4
		}
		if leafCap > maxLeafCap {
			leafCap = maxLeafCap
		}
		if intCap > maxIntCap {
			intCap = maxIntCap
		}
		t.leafCap, t.intCap = leafCap, intCap
	}
}

// Create makes a new empty tree in its own file.
func Create(pool *buffer.Pool, name string, opts ...Option) (*Tree, error) {
	if pool.Size() < MinPoolFrames {
		return nil, fmt.Errorf("btree: pool of %d frames is below minimum %d", pool.Size(), MinPoolFrames)
	}
	fid, err := pool.Store().CreateFile(name)
	if err != nil {
		return nil, err
	}
	t := &Tree{pool: pool, fid: fid, name: name, leafCap: defaultLeafCap, intCap: defaultIntCap}
	for _, o := range opts {
		o(t)
	}
	// Page 0: meta. Page 1: empty root leaf.
	mh, _, err := pool.NewPage(fid)
	if err != nil {
		return nil, err
	}
	rh, rpid, err := pool.NewPage(fid)
	if err != nil {
		mh.Unpin()
		return nil, err
	}
	initNode(rh.Page(), true)
	rh.MarkDirty()
	rh.Unpin()

	mp := mh.Page()
	binary.LittleEndian.PutUint32(mp[0:], metaMagic)
	binary.LittleEndian.PutUint32(mp[metaRoot:], rpid.Page)
	binary.LittleEndian.PutUint32(mp[metaHeight:], 1)
	binary.LittleEndian.PutUint64(mp[metaCount:], 0)
	binary.LittleEndian.PutUint32(mp[metaLeafCap:], uint32(t.leafCap))
	binary.LittleEndian.PutUint32(mp[metaIntCap:], uint32(t.intCap))
	binary.LittleEndian.PutUint32(mp[metaFreeHead:], noPage)
	mh.MarkDirty()
	mh.Unpin()
	return t, nil
}

// Open wraps an existing tree file.
func Open(pool *buffer.Pool, fid pagefile.FileID) (*Tree, error) {
	name, err := pool.Store().FileName(fid)
	if err != nil {
		return nil, err
	}
	t := &Tree{pool: pool, fid: fid, name: name}
	mh, err := pool.Get(pagefile.PageID{File: fid, Page: 0})
	if err != nil {
		return nil, err
	}
	defer mh.Unpin()
	mp := mh.Page()
	if binary.LittleEndian.Uint32(mp[0:]) != metaMagic {
		return nil, fmt.Errorf("btree: file %d is not a btree", fid)
	}
	t.leafCap = int(binary.LittleEndian.Uint32(mp[metaLeafCap:]))
	t.intCap = int(binary.LittleEndian.Uint32(mp[metaIntCap:]))
	return t, nil
}

// FileID returns the tree's file id.
func (t *Tree) FileID() pagefile.FileID { return t.fid }

// Name returns the tree's name.
func (t *Tree) Name() string { return t.name }

type meta struct {
	root     uint32
	height   int
	count    uint64
	freeHead uint32
}

func (t *Tree) loadMeta() (meta, error) {
	mh, err := t.page(0)
	if err != nil {
		return meta{}, err
	}
	defer mh.Unpin()
	mp := mh.Page()
	return meta{
		root:     binary.LittleEndian.Uint32(mp[metaRoot:]),
		height:   int(binary.LittleEndian.Uint32(mp[metaHeight:])),
		count:    binary.LittleEndian.Uint64(mp[metaCount:]),
		freeHead: binary.LittleEndian.Uint32(mp[metaFreeHead:]),
	}, nil
}

func (t *Tree) storeMeta(m meta) error {
	mh, err := t.pageW(0)
	if err != nil {
		return err
	}
	defer mh.Unpin()
	mp := mh.Page()
	binary.LittleEndian.PutUint32(mp[metaRoot:], m.root)
	binary.LittleEndian.PutUint32(mp[metaHeight:], uint32(m.height))
	binary.LittleEndian.PutUint64(mp[metaCount:], m.count)
	binary.LittleEndian.PutUint32(mp[metaFreeHead:], m.freeHead)
	mh.MarkDirty()
	return nil
}

// allocNode returns a pinned, initialized node page, reusing freed pages.
func (t *Tree) allocNode(m *meta, leaf bool) (*buffer.Handle, uint32, error) {
	if m.freeHead != noPage {
		pageNo := m.freeHead
		h, err := t.pageW(pageNo)
		if err != nil {
			return nil, 0, err
		}
		n, err := asNode(h.Page())
		if err != nil {
			h.Unpin()
			return nil, 0, err
		}
		m.freeHead = n.next()
		initNode(h.Page(), leaf)
		h.MarkDirty()
		return h, pageNo, nil
	}
	var h *buffer.Handle
	var pid pagefile.PageID
	var err error
	if t.mode == modeCapture {
		h, pid, err = t.pool.NewPageCaptureT(t.fid, t.tr)
	} else {
		h, pid, err = t.pool.NewPageT(t.fid, t.tr)
	}
	if err != nil {
		return nil, 0, err
	}
	initNode(h.Page(), leaf)
	h.MarkDirty()
	return h, pid.Page, nil
}

// freeNode pushes pageNo onto the free chain.
func (t *Tree) freeNode(m *meta, pageNo uint32) error {
	h, err := t.pageW(pageNo)
	if err != nil {
		return err
	}
	defer h.Unpin()
	n := initNode(h.Page(), false)
	n.setNext(m.freeHead)
	h.MarkDirty()
	m.freeHead = pageNo
	return nil
}

// Insert adds (key, oid). It returns ErrExists if the exact pair is present.
func (t *Tree) Insert(key Key, oid pagefile.OID) error {
	if err := t.guardWrite(); err != nil {
		return err
	}
	m, err := t.loadMeta()
	if err != nil {
		return err
	}
	e := entry{key: key, oid: oid}
	split, sep, newChild, err := t.insert(&m, m.root, m.height, e)
	if err != nil {
		return err
	}
	if split {
		rh, rpage, err := t.allocNode(&m, false)
		if err != nil {
			return err
		}
		rn, _ := asNode(rh.Page())
		rn.setChild0(m.root)
		rn.insertIntAt(0, sep, newChild)
		rh.MarkDirty()
		rh.Unpin()
		m.root = rpage
		m.height++
	}
	m.count++
	return t.storeMeta(m)
}

func (t *Tree) insert(m *meta, pageNo uint32, level int, e entry) (split bool, sep entry, newPage uint32, err error) {
	h, err := t.page(pageNo)
	if err != nil {
		return false, entry{}, 0, err
	}
	defer h.Unpin()
	n, err := asNode(h.Page())
	if err != nil {
		return false, entry{}, 0, err
	}
	if level == 1 {
		if !n.isLeaf() {
			return false, entry{}, 0, fmt.Errorf("btree: level-1 node %d is not a leaf", pageNo)
		}
		pos := n.leafSearch(e)
		if pos < n.nkeys() && compareEntries(n.leafEntry(pos), e) == 0 {
			return false, entry{}, 0, fmt.Errorf("%w: key=%x oid=%v", ErrExists, e.key, e.oid)
		}
		t.willWrite(h)
		n.insertLeafAt(pos, e)
		h.MarkDirty()
		if n.nkeys() <= t.leafCap {
			return false, entry{}, 0, nil
		}
		// Split leaf: upper half moves right.
		rh, rpage, err := t.allocNode(m, true)
		if err != nil {
			return false, entry{}, 0, err
		}
		defer rh.Unpin()
		rn, _ := asNode(rh.Page())
		k := n.nkeys()
		mid := k / 2
		for i := mid; i < k; i++ {
			rn.setLeafEntry(i-mid, n.leafEntry(i))
		}
		rn.setNKeys(k - mid)
		n.setNKeys(mid)
		rn.setNext(n.next())
		n.setNext(rpage)
		rh.MarkDirty()
		h.MarkDirty()
		return true, rn.leafEntry(0), rpage, nil
	}
	pos := n.descendPos(e)
	child := n.childAt(pos)
	childSplit, childSep, childNew, err := t.insert(m, child, level-1, e)
	if err != nil {
		return false, entry{}, 0, err
	}
	if !childSplit {
		return false, entry{}, 0, nil
	}
	t.willWrite(h)
	n.insertIntAt(pos, childSep, childNew)
	h.MarkDirty()
	if n.nkeys() <= t.intCap {
		return false, entry{}, 0, nil
	}
	// Split internal: middle separator moves up.
	rh, rpage, err := t.allocNode(m, false)
	if err != nil {
		return false, entry{}, 0, err
	}
	defer rh.Unpin()
	rn, _ := asNode(rh.Page())
	k := n.nkeys()
	mid := k / 2
	upSep, upChild := n.intEntry(mid)
	rn.setChild0(upChild)
	for i := mid + 1; i < k; i++ {
		se, sc := n.intEntry(i)
		rn.setIntEntry(i-mid-1, se, sc)
	}
	rn.setNKeys(k - mid - 1)
	n.setNKeys(mid)
	rh.MarkDirty()
	h.MarkDirty()
	return true, upSep, rpage, nil
}

// Delete removes the exact (key, oid) pair, returning ErrNotFound if absent.
func (t *Tree) Delete(key Key, oid pagefile.OID) error {
	if err := t.guardWrite(); err != nil {
		return err
	}
	m, err := t.loadMeta()
	if err != nil {
		return err
	}
	e := entry{key: key, oid: oid}
	if _, err := t.delete(&m, m.root, m.height, e); err != nil {
		return err
	}
	// Shrink the root if it is an internal node with no separators.
	for m.height > 1 {
		h, err := t.page(m.root)
		if err != nil {
			return err
		}
		n, err := asNode(h.Page())
		if err != nil {
			h.Unpin()
			return err
		}
		if n.isLeaf() || n.nkeys() > 0 {
			h.Unpin()
			break
		}
		newRoot := n.child0()
		h.Unpin()
		if err := t.freeNode(&m, m.root); err != nil {
			return err
		}
		m.root = newRoot
		m.height--
	}
	m.count--
	return t.storeMeta(m)
}

func (t *Tree) minLeaf() int { return t.leafCap / 2 }
func (t *Tree) minInt() int  { return t.intCap / 2 }

// delete removes e from the subtree at pageNo. It reports whether the node
// underflowed (fell below its minimum fill).
func (t *Tree) delete(m *meta, pageNo uint32, level int, e entry) (bool, error) {
	h, err := t.page(pageNo)
	if err != nil {
		return false, err
	}
	defer h.Unpin()
	n, err := asNode(h.Page())
	if err != nil {
		return false, err
	}
	if level == 1 {
		pos := n.leafSearch(e)
		if pos >= n.nkeys() || compareEntries(n.leafEntry(pos), e) != 0 {
			return false, fmt.Errorf("%w: key=%x oid=%v", ErrNotFound, e.key, e.oid)
		}
		t.willWrite(h)
		n.removeLeafAt(pos)
		h.MarkDirty()
		return n.nkeys() < t.minLeaf(), nil
	}
	pos := n.descendPos(e)
	child := n.childAt(pos)
	under, err := t.delete(m, child, level-1, e)
	if err != nil {
		return false, err
	}
	if under {
		if err := t.rebalance(m, n, h, pos, level-1); err != nil {
			return false, err
		}
	}
	return n.nkeys() < t.minInt(), nil
}

// rebalance fixes an underflowed child at descent position pos of parent n.
// childLevel is the child's level (1 = leaf).
func (t *Tree) rebalance(m *meta, parent node, ph *buffer.Handle, pos, childLevel int) error {
	// Every branch below rewrites the parent and (or frees) the child; a
	// sibling joins the scope only in the branch that changes it.
	t.willWrite(ph)
	childPage := parent.childAt(pos)
	ch, err := t.pageW(childPage)
	if err != nil {
		return err
	}
	defer ch.Unpin()
	child, err := asNode(ch.Page())
	if err != nil {
		return err
	}

	pin := func(page uint32) (*buffer.Handle, node, error) {
		sh, err := t.page(page)
		if err != nil {
			return nil, node{}, err
		}
		sn, err := asNode(sh.Page())
		if err != nil {
			sh.Unpin()
			return nil, node{}, err
		}
		return sh, sn, nil
	}

	isLeaf := childLevel == 1
	minFill := t.minInt()
	if isLeaf {
		minFill = t.minLeaf()
	}

	// Try borrowing from the left sibling.
	if pos > 0 {
		lh, left, err := pin(parent.childAt(pos - 1))
		if err != nil {
			return err
		}
		if left.nkeys() > minFill {
			t.willWrite(lh)
			if isLeaf {
				last := left.leafEntry(left.nkeys() - 1)
				left.setNKeys(left.nkeys() - 1)
				child.insertLeafAt(0, last)
				pc := parent.childAt(pos)
				parent.setIntEntry(pos-1, child.leafEntry(0), pc)
			} else {
				sep, _ := parent.intEntry(pos - 1)
				lastSep, lastChild := left.intEntry(left.nkeys() - 1)
				left.setNKeys(left.nkeys() - 1)
				child.insertIntAt(0, sep, child.child0())
				child.setChild0(lastChild)
				pc := parent.childAt(pos)
				parent.setIntEntry(pos-1, lastSep, pc)
			}
			lh.MarkDirty()
			ch.MarkDirty()
			ph.MarkDirty()
			lh.Unpin()
			return nil
		}
		lh.Unpin()
	}
	// Try borrowing from the right sibling.
	if pos < parent.nkeys() {
		rh, right, err := pin(parent.childAt(pos + 1))
		if err != nil {
			return err
		}
		if right.nkeys() > minFill {
			t.willWrite(rh)
			if isLeaf {
				first := right.leafEntry(0)
				right.removeLeafAt(0)
				child.insertLeafAt(child.nkeys(), first)
				rc := parent.childAt(pos + 1)
				parent.setIntEntry(pos, right.leafEntry(0), rc)
			} else {
				sep, _ := parent.intEntry(pos)
				firstSep, _ := right.intEntry(0)
				child.insertIntAt(child.nkeys(), sep, right.child0())
				_, c0 := right.intEntry(0)
				right.setChild0(c0)
				right.removeIntAt(0)
				rc := parent.childAt(pos + 1)
				parent.setIntEntry(pos, firstSep, rc)
			}
			rh.MarkDirty()
			ch.MarkDirty()
			ph.MarkDirty()
			rh.Unpin()
			return nil
		}
		rh.Unpin()
	}
	// Merge. Prefer merging child into its left sibling.
	if pos > 0 {
		leftPage := parent.childAt(pos - 1)
		lh, left, err := pin(leftPage)
		if err != nil {
			return err
		}
		t.willWrite(lh)
		if isLeaf {
			base := left.nkeys()
			for i := 0; i < child.nkeys(); i++ {
				left.setLeafEntry(base+i, child.leafEntry(i))
			}
			left.setNKeys(base + child.nkeys())
			left.setNext(child.next())
		} else {
			sep, _ := parent.intEntry(pos - 1)
			base := left.nkeys()
			left.setIntEntry(base, sep, child.child0())
			for i := 0; i < child.nkeys(); i++ {
				se, sc := child.intEntry(i)
				left.setIntEntry(base+1+i, se, sc)
			}
			left.setNKeys(base + 1 + child.nkeys())
		}
		parent.removeIntAt(pos - 1)
		lh.MarkDirty()
		ph.MarkDirty()
		lh.Unpin()
		return t.freeNode(m, childPage)
	}
	// Merge the right sibling into child.
	rightPage := parent.childAt(pos + 1)
	rh, right, err := pin(rightPage)
	if err != nil {
		return err
	}
	if isLeaf {
		base := child.nkeys()
		for i := 0; i < right.nkeys(); i++ {
			child.setLeafEntry(base+i, right.leafEntry(i))
		}
		child.setNKeys(base + right.nkeys())
		child.setNext(right.next())
	} else {
		sep, _ := parent.intEntry(pos)
		base := child.nkeys()
		child.setIntEntry(base, sep, right.child0())
		for i := 0; i < right.nkeys(); i++ {
			se, sc := right.intEntry(i)
			child.setIntEntry(base+1+i, se, sc)
		}
		child.setNKeys(base + 1 + right.nkeys())
	}
	parent.removeIntAt(pos)
	ch.MarkDirty()
	ph.MarkDirty()
	rh.Unpin()
	return t.freeNode(m, rightPage)
}

// Count returns the number of entries.
func (t *Tree) Count() (uint64, error) {
	m, err := t.loadMeta()
	if err != nil {
		return 0, err
	}
	return m.count, nil
}

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() (int, error) {
	m, err := t.loadMeta()
	if err != nil {
		return 0, err
	}
	return m.height, nil
}

// Bounds returns the smallest and largest keys currently in the tree — the
// key domain the planner interpolates range selectivities over. ok is false
// when the tree is empty. Cost: one descent down each edge of the tree
// (2×height page pins, overlapping at the root).
func (t *Tree) Bounds() (lo, hi Key, ok bool, err error) {
	m, err := t.loadMeta()
	if err != nil || m.count == 0 {
		return Key{}, Key{}, false, err
	}
	if lo, err = t.edgeKey(m, false); err != nil {
		return Key{}, Key{}, false, err
	}
	if hi, err = t.edgeKey(m, true); err != nil {
		return Key{}, Key{}, false, err
	}
	return lo, hi, true, nil
}

// edgeKey descends the leftmost (rightmost=false) or rightmost chain of
// children and returns the first (last) key of the edge leaf.
func (t *Tree) edgeKey(m meta, rightmost bool) (Key, error) {
	pageNo := m.root
	for level := m.height; level > 1; level-- {
		h, err := t.page(pageNo)
		if err != nil {
			return Key{}, err
		}
		n, nerr := asNode(h.Page())
		if nerr != nil {
			h.Unpin()
			return Key{}, nerr
		}
		if rightmost {
			pageNo = n.childAt(n.nkeys())
		} else {
			pageNo = n.childAt(0)
		}
		h.Unpin()
	}
	h, err := t.page(pageNo)
	if err != nil {
		return Key{}, err
	}
	defer h.Unpin()
	n, err := asNode(h.Page())
	if err != nil {
		return Key{}, err
	}
	k := n.nkeys()
	if k == 0 {
		return Key{}, nil
	}
	if rightmost {
		return n.leafEntry(k - 1).key, nil
	}
	return n.leafEntry(0).key, nil
}
