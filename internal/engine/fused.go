package engine

import (
	"sync"

	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// fuseMemo is a row program's memo implementing Odra-style join fusion for
// functional joins: a walk is evaluated once per departure object, not once
// per source record. Sharing-heavy reference graphs (many employees per
// department, many departments per organization) then read and decode each
// target once per query instead of once per source record — the traversal's
// page cost is capped at the target sets' total pages, which is exactly what
// the planner's fused-path costing assumes.
//
// Three layers, innermost first:
//
//   - objs: the decoded traversal targets, shared by every worker of the
//     program under a mutex held across a miss's read, so that each target is
//     read exactly once however many workers want it.
//   - rowWorker.terms: per worker and walking accessor, the terminal value
//     under the OID the walk departs from (no lock). Every source record
//     pointing at the same first target resolves to the same terminal value.
//   - rowWorker.verdicts: per worker and walked predicate, the ordering of
//     that terminal value against the predicate's constant(s), under the same
//     departure OID. A record whose departure was seen before is tested with
//     one lookup and without materializing a schema.Value.
//
// Both per-worker layers are departure tables (departures), which never hash
// an OID. Errors are never memoized.
//
// The memo belongs to one query's program (compiled after any
// deferred-propagation drain, discarded with the program before the query
// returns), so it can never serve values stale against a mutation: no write
// runs inside a query, and updateWhere's collection pass compiles without
// one. A nil *fuseMemo is the record-at-a-time baseline (Query.NoFuse): every
// walk reads its objects again and no verdict is kept.
type fuseMemo struct {
	mu   sync.Mutex
	objs map[pagefile.OID]*schema.Object
}

func newFuseMemo() *fuseMemo {
	return &fuseMemo{objs: make(map[pagefile.OID]*schema.Object)}
}

// verdict is a walked predicate's ordering against its constants for one
// departure: lo against Pred.Value, hi against Pred.Value2 (OpBetween only).
type verdict struct{ lo, hi int8 }

// walk resolves a's functional walk departing from the non-nil OID from.
func (w *rowWorker) walk(a *accessor, from pagefile.OID) (schema.Value, error) {
	m := w.p.memo
	if m != nil {
		if v, hit := w.terms[a.slot].get(from); hit {
			return v, nil
		}
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	v := schema.RefValue(from)
	for _, step := range a.walk {
		if v.R.IsNil() {
			// Broken chain: the zero value of the terminal field.
			v = schema.Zero(a.kind)
			break
		}
		obj, err := m.object(w.s, v.R, step.typ)
		if err != nil {
			return schema.Value{}, err
		}
		v = obj.Values[step.next]
	}
	if m != nil {
		w.terms[a.slot].put(from, v)
	}
	return v, nil
}

// object reads a traversal target, once per query when m is installed. Only
// walks use it — source-set records stream from the scan and are never
// cached. The caller holds m.mu.
func (m *fuseMemo) object(s *sess, oid pagefile.OID, typ *schema.Type) (*schema.Object, error) {
	if m == nil {
		return s.readObject(oid, typ)
	}
	if obj, hit := m.objs[oid]; hit {
		return obj, nil
	}
	obj, err := s.readObject(oid, typ)
	if err == nil {
		m.objs[oid] = obj
	}
	return obj, err
}

// departures maps departure OIDs to T without hashing them. The objects of the
// first file it is given an OID of sit in a dense table on (page, slot): one
// slice header per page up to the highest page seen, and a slot array for
// each page actually touched, allocated on first use. Departures into any
// other file — an expression whose reference attribute reaches two sets of
// the same type — fall back to a map. The zero value is an empty table; its
// first put claims the file (pages is nil until then).
type departures[T any] struct {
	file  pagefile.FileID
	pages [][]departure[T]
	other map[pagefile.OID]T
}

type departure[T any] struct {
	v  T
	ok bool
}

func (d *departures[T]) get(oid pagefile.OID) (T, bool) {
	if d.pages != nil && oid.File == d.file {
		if int(oid.Page) < len(d.pages) {
			if pg := d.pages[oid.Page]; int(oid.Slot) < len(pg) {
				return pg[oid.Slot].v, pg[oid.Slot].ok
			}
		}
		var zero T
		return zero, false
	}
	v, ok := d.other[oid]
	return v, ok
}

func (d *departures[T]) put(oid pagefile.OID, v T) {
	if d.pages == nil {
		d.file = oid.File
	}
	if oid.File != d.file {
		if d.other == nil {
			d.other = make(map[pagefile.OID]T)
		}
		d.other[oid] = v
		return
	}
	if n := int(oid.Page) + 1; n > len(d.pages) {
		d.pages = append(d.pages, make([][]departure[T], n-len(d.pages))...)
	}
	pg := d.pages[oid.Page]
	if n := int(oid.Slot) + 1; n > len(pg) {
		pg = append(pg, make([]departure[T], n-len(pg))...)
		d.pages[oid.Page] = pg
	}
	pg[oid.Slot] = departure[T]{v: v, ok: true}
}
