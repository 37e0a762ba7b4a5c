package btree

import (
	"encoding/binary"
	"fmt"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Node page layout. Nodes use a raw layout (not slotted pages) because all
// entries are fixed size.
//
//	meta page (page 0):
//	  0  magic    u32
//	  4  root     u32
//	  8  height   u32  (1 = root is a leaf)
//	 12  (store checksum, u32)
//	 16  (page LSN, u64)
//	 24  count    u64  (number of entries)
//	 32  leafCap  u32
//	 36  intCap   u32
//	 40  freeHead u32  (head of free-page chain, ^0 if none)
//
//	node page:
//	  0  magic  u16
//	  2  flags  u8   (bit0: leaf)
//	  4  nkeys  u16
//	  8  next   u32  (leaf: right sibling; free page: next free; ^0 none)
//	 12  (store checksum, u32), 16 (page LSN, u64)
//	 24  entries / child0+entries
//
// Leaf entry: key(16) + oid(10)            = 26 bytes
// Internal:   child0 u32 at 24, then entries key(16) + oid(10) + child u32 = 30 bytes
type entry struct {
	key Key
	oid pagefile.OID
}

func compareEntries(a, b entry) int {
	if c := CompareKeys(a.key, b.key); c != 0 {
		return c
	}
	return a.oid.Compare(b.oid)
}

const (
	metaMagic = 0xB7EE0001
	nodeMagic = 0xB7EE

	// Bytes 12..16 are reserved in every page layout (meta, node, and the
	// slotted pages of other files) for the store-level page checksum, and
	// bytes 16..24 for the WAL page LSN.
	metaRoot     = 4
	metaHeight   = 8
	metaCount    = 24
	metaLeafCap  = 32
	metaIntCap   = 36
	metaFreeHead = 40

	nodeFlags   = 2
	nodeNKeys   = 4
	nodeNext    = 8
	nodeBody    = 24
	leafEntrySz = KeySize + pagefile.OIDSize     // 26
	intEntrySz  = KeySize + pagefile.OIDSize + 4 // 30
	noPage      = ^uint32(0)
)

// Default capacities derived from the page size. One entry of slack is
// reserved because a node holds cap+1 entries momentarily before it splits.
const (
	maxLeafCap     = (pagefile.PageSize-nodeBody)/leafEntrySz - 1  // 155
	maxIntCap      = (pagefile.PageSize-nodeBody-4)/intEntrySz - 1 // 134
	defaultLeafCap = maxLeafCap
	defaultIntCap  = maxIntCap
)

type node struct {
	p *pagefile.Page
}

func initNode(p *pagefile.Page, leaf bool) node {
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint16(p[0:], nodeMagic)
	if leaf {
		p[nodeFlags] = 1
	}
	binary.LittleEndian.PutUint32(p[nodeNext:], noPage)
	return node{p: p}
}

func asNode(p *pagefile.Page) (node, error) {
	if binary.LittleEndian.Uint16(p[0:]) != nodeMagic {
		return node{}, fmt.Errorf("btree: page is not a node")
	}
	return node{p: p}, nil
}

func (n node) isLeaf() bool { return n.p[nodeFlags]&1 != 0 }

func (n node) nkeys() int { return int(binary.LittleEndian.Uint16(n.p[nodeNKeys:])) }

func (n node) setNKeys(k int) { binary.LittleEndian.PutUint16(n.p[nodeNKeys:], uint16(k)) }

func (n node) next() uint32 { return binary.LittleEndian.Uint32(n.p[nodeNext:]) }

func (n node) setNext(v uint32) { binary.LittleEndian.PutUint32(n.p[nodeNext:], v) }

// --- leaf entry access ---

func (n node) leafEntry(i int) entry {
	off := nodeBody + i*leafEntrySz
	var e entry
	copy(e.key[:], n.p[off:off+KeySize])
	e.oid, _ = pagefile.DecodeOID(n.p[off+KeySize : off+leafEntrySz])
	return e
}

func (n node) setLeafEntry(i int, e entry) {
	off := nodeBody + i*leafEntrySz
	copy(n.p[off:], e.key[:])
	e.oid.AppendTo(n.p[off+KeySize : off+KeySize]) // appends in place: the page is the capacity
}

// insertLeafAt shifts entries right and writes e at position i.
func (n node) insertLeafAt(i int, e entry) {
	k := n.nkeys()
	start := nodeBody + i*leafEntrySz
	end := nodeBody + k*leafEntrySz
	copy(n.p[start+leafEntrySz:end+leafEntrySz], n.p[start:end])
	n.setLeafEntry(i, e)
	n.setNKeys(k + 1)
}

func (n node) removeLeafAt(i int) {
	k := n.nkeys()
	start := nodeBody + i*leafEntrySz
	end := nodeBody + k*leafEntrySz
	copy(n.p[start:], n.p[start+leafEntrySz:end])
	n.setNKeys(k - 1)
}

// --- internal entry access ---

func (n node) child0() uint32 { return binary.LittleEndian.Uint32(n.p[nodeBody:]) }

func (n node) setChild0(v uint32) { binary.LittleEndian.PutUint32(n.p[nodeBody:], v) }

func (n node) intEntry(i int) (entry, uint32) {
	off := nodeBody + 4 + i*intEntrySz
	var e entry
	copy(e.key[:], n.p[off:off+KeySize])
	e.oid, _ = pagefile.DecodeOID(n.p[off+KeySize : off+KeySize+pagefile.OIDSize])
	child := binary.LittleEndian.Uint32(n.p[off+KeySize+pagefile.OIDSize:])
	return e, child
}

func (n node) setIntEntry(i int, e entry, child uint32) {
	off := nodeBody + 4 + i*intEntrySz
	copy(n.p[off:], e.key[:])
	e.oid.AppendTo(n.p[off+KeySize : off+KeySize])
	binary.LittleEndian.PutUint32(n.p[off+KeySize+pagefile.OIDSize:], child)
}

func (n node) insertIntAt(i int, e entry, child uint32) {
	k := n.nkeys()
	start := nodeBody + 4 + i*intEntrySz
	end := nodeBody + 4 + k*intEntrySz
	copy(n.p[start+intEntrySz:end+intEntrySz], n.p[start:end])
	n.setIntEntry(i, e, child)
	n.setNKeys(k + 1)
}

func (n node) removeIntAt(i int) {
	k := n.nkeys()
	start := nodeBody + 4 + i*intEntrySz
	end := nodeBody + 4 + k*intEntrySz
	copy(n.p[start:], n.p[start+intEntrySz:end])
	n.setNKeys(k - 1)
}

// childAt returns the child pointer for descent position i, where position 0
// is child0 and position j>0 is the child of entry j-1.
func (n node) childAt(i int) uint32 {
	if i == 0 {
		return n.child0()
	}
	_, c := n.intEntry(i - 1)
	return c
}

// descendPos returns the child position to follow for e: the number of
// separators <= e.
func (n node) descendPos(e entry) int {
	k := n.nkeys()
	lo, hi := 0, k
	for lo < hi {
		mid := (lo + hi) / 2
		sep, _ := n.intEntry(mid)
		if compareEntries(sep, e) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafSearch returns the position of the first leaf entry >= e.
func (n node) leafSearch(e entry) int {
	k := n.nkeys()
	lo, hi := 0, k
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntries(n.leafEntry(mid), e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
