package engine

import (
	"sync"

	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// fuseMemo is a row program's memo implementing Odra-style join fusion for
// functional joins: the multi-level path traversal still runs as one pass,
// but every decoded traversal target and every resolved terminal value is
// cached for the query's lifetime. Sharing-heavy reference graphs (many
// employees per department, many departments per organization) then read and
// decode each target once per query instead of once per source record — the
// traversal's page cost is capped at the target sets' total pages, which is
// exactly what the planner's fused-path costing assumes.
//
// The decoded targets are shared by every worker of the program, under a
// mutex held across a miss's read so that each target is read exactly once
// however many workers want it. Terminal values are memoized in front of
// them by each rowWorker (terms, no lock), per walking expression, under the
// OID the walk departs from: every source record pointing at the same first
// target resolves to the same terminal value.
//
// The memo belongs to one query's program (compiled after any
// deferred-propagation drain, discarded with the program before the query
// returns), so it can never serve values stale against a mutation: no write
// runs inside a query, and updateWhere's collection pass compiles without
// one. A nil *fuseMemo is the no-fusion baseline (Query.NoFuse): every walk
// reads its objects again.
type fuseMemo struct {
	mu   sync.Mutex
	objs map[pagefile.OID]*schema.Object
}

func newFuseMemo() *fuseMemo {
	return &fuseMemo{objs: make(map[pagefile.OID]*schema.Object)}
}

// walk resolves a's functional walk departing from the non-nil OID from.
func (w *rowWorker) walk(a *accessor, from pagefile.OID) (schema.Value, error) {
	m := w.p.memo
	if m != nil {
		if v, hit := w.terms[a.slot][from]; hit {
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
		if w.terms[a.slot] == nil {
			w.terms[a.slot] = make(map[pagefile.OID]schema.Value)
		}
		w.terms[a.slot][from] = v
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
