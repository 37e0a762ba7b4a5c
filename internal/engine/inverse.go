package engine

import (
	"fmt"
	"strings"

	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Inverse answers a bidirectional-reference query (paper §8: inverted paths
// "implementing inverse functions"): the OIDs of objects in the source set
// whose reference chain refExpr ("dept", or "dept.org") reaches target. When
// a replication path maintains the needed inverted-path link the answer
// comes from the target's link structure — no scan; otherwise the source set
// is scanned. via reports which ("inverted-path" or "scan").
func (db *DB) Inverse(source, refExpr string, target pagefile.OID) (oids []pagefile.OID, via string, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	refs := strings.Split(refExpr, ".")
	if len(refs) == 0 || refs[0] == "" {
		return nil, "", fmt.Errorf("engine: empty reference expression")
	}
	typ, err := db.cat.SetType(source)
	if err != nil {
		return nil, "", err
	}
	// Validate the chain against the schema.
	cur := typ
	for _, r := range refs {
		f, ok := cur.Field(r)
		if !ok || f.Kind != schema.KindRef {
			return nil, "", fmt.Errorf("engine: %s has no reference attribute %q", cur.Name, r)
		}
		next, ok := db.cat.TypeByName(f.RefType)
		if !ok {
			return nil, "", fmt.Errorf("engine: unknown type %s", f.RefType)
		}
		cur = next
	}

	// A read session: on a logged database link structures and objects are
	// read through snapshot views, concurrent with writers.
	s := db.readSess(nil)
	if got, ok, err := s.mgr.InverseLookup(source, refs, target); err != nil {
		return nil, "", err
	} else if ok {
		return got, "inverted-path", nil
	}

	// Fallback: scan the source set and walk each object's chain.
	file, err := s.SetFile(source)
	if err != nil {
		return nil, "", err
	}
	err = file.Scan(func(oid pagefile.OID, payload []byte) error {
		obj, err := schema.Decode(typ, payload)
		if err != nil {
			return err
		}
		reached, err := s.chainReaches(typ, obj, refs, target)
		if err != nil {
			return err
		}
		if reached {
			oids = append(oids, oid)
		}
		return nil
	})
	return oids, "scan", err
}

// chainReaches walks obj's reference chain and reports whether it ends at
// target.
func (s *sess) chainReaches(typ *schema.Type, obj *schema.Object, refs []string, target pagefile.OID) (bool, error) {
	cur, curType := obj, typ
	for i, r := range refs {
		v, _ := cur.Get(r)
		if v.R.IsNil() {
			return false, nil
		}
		if i == len(refs)-1 {
			return v.R == target, nil
		}
		f, _ := curType.Field(r)
		nextType, ok := s.db.cat.TypeByName(f.RefType)
		if !ok {
			return false, fmt.Errorf("engine: unknown type %s", f.RefType)
		}
		next, err := s.readObject(v.R, nextType)
		if err != nil {
			return false, err
		}
		cur, curType = next, nextType
	}
	return false, nil
}

// FlushReplication drains all pending deferred propagations, as a schema
// operation (under the exclusive lock, its pages committed in pool-bounded
// chunks).
func (db *DB) FlushReplication() error {
	return db.ddl(func(s *sess) error {
		if err := s.mgr.FlushAllPending(); err != nil {
			return err
		}
		return s.takeIdxErr()
	})
}

// PendingPropagations reports the number of queued deferred propagations.
func (db *DB) PendingPropagations() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.mgr.PendingPropagations()
}

// ReplStorage reports the auxiliary storage one replication path consumes:
// pages and records of its link-object files and of its S′ file, and how many
// of those records sit behind a forwarding stub — each of which costs a second
// page to read (shared figures repeat for paths sharing links or groups). It
// quantifies the paper's §4.2 space discussion.
type ReplStorage struct {
	Path            string
	Strategy        string
	LinkPages       uint32
	LinkObjects     int
	LinkForwarded   int
	SPrimePages     uint32
	SPrimeObjects   int
	SPrimeForwarded int
}

// ReplicationStorage reports per-path auxiliary storage. Like SetStats it
// takes the exclusive lock for its multi-page walks.
func (db *DB) ReplicationStorage() ([]ReplStorage, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.readSess(nil)
	stats := func(fid pagefile.FileID) (heap.Stats, error) {
		f, err := s.heapFor(fid)
		if err != nil {
			return heap.Stats{}, err
		}
		return f.Stats()
	}
	var out []ReplStorage
	for _, p := range db.cat.Paths() {
		rs := ReplStorage{Path: p.Spec.String(), Strategy: p.Strategy.String()}
		for _, l := range pathLinks(p) {
			if !l.HasFile {
				continue
			}
			st, err := stats(l.FileID)
			if err != nil {
				return nil, err
			}
			rs.LinkPages += st.Pages
			rs.LinkObjects += st.Live
			rs.LinkForwarded += st.Forwarded
		}
		if p.Group != nil && p.Group.HasFile {
			st, err := stats(p.Group.FileID)
			if err != nil {
				return nil, err
			}
			rs.SPrimePages, rs.SPrimeObjects, rs.SPrimeForwarded = st.Pages, st.Live, st.Forwarded
		}
		out = append(out, rs)
	}
	return out, nil
}
