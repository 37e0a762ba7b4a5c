package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/exodb/fieldrepl/internal/btree"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/plan"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Op is a comparison operator for predicates.
type Op int

// Comparison operators.
const (
	OpEQ Op = iota
	OpLT
	OpLE
	OpGT
	OpGE
	OpBetween // Value <= x <= Value2
)

func (o Op) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpBetween:
		return "between"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Pred is a predicate on a field or dotted path expression.
type Pred struct {
	Expr   string // "salary" or "dept.org.name"
	Op     Op
	Value  schema.Value
	Value2 schema.Value // upper bound for OpBetween
}

// Query is a retrieve statement: project the given field/path expressions
// from the objects of Set satisfying Where.
type Query struct {
	Set     string
	Project []string
	Where   *Pred
	// Filters are additional conjuncts applied after Where; they never
	// drive index selection.
	Filters []Pred
	// EmitOutput writes the result tuples to an output file (the cost
	// model's T), counting its page writes.
	EmitOutput bool
	// ForceScan disables index selection (for baseline measurements).
	ForceScan bool
	// NoFuse disables the per-query join-fusion memo, forcing record-at-a-time
	// functional joins (for baseline measurements).
	NoFuse bool
}

// Row is one result tuple.
type Row struct {
	OID    pagefile.OID
	Values []schema.Value
}

// Result is a query result.
type Result struct {
	Rows []Row
	// UsedIndex names the index chosen by the planner, if any.
	UsedIndex string
	// OutputPages is the page count of the generated output file when
	// EmitOutput was set.
	OutputPages uint32
	// Decision is the cost-based planner's record for this execution: chosen
	// access path, costed alternatives, operator pipeline, predicted pages.
	Decision *plan.Decision
}

// Query executes a retrieve and returns, with the result (which carries the
// planner's Decision), the query's completed obs.Record: its own page I/O
// (buffer hits/misses, store reads/writes, prefetches) attributed exactly to
// this query regardless of what ran concurrently, plus plan kind, predicted
// pages and the wall-time breakdown. The record — not a global IO() delta,
// which counts every concurrent operation's pages — is the way to measure
// per-query I/O.
//
// On a logged database, reads — including output-emitting queries — run
// under the shared lock against page-level snapshots, fully concurrent with
// writers and never charged any lock wait; only a query that must drain
// deferred propagation runs as a write statement (the drain mutates derived
// state) and takes its set's footprint locks.
//
// Cancellation of ctx (nil means none) is checked per record during scans
// and index ranges, including parallel scan workers, so a cancelled query
// stops fetching pages promptly. With ScanWorkers > 1 a non-indexed query
// evaluates predicates and projections in parallel across page ranges; the
// result rows then arrive in no particular order (the sequential default
// preserves physical order).
func (db *DB) Query(ctx context.Context, q Query) (*Result, obs.Record, error) {
	tr := db.obs.Start(obs.KindQuery, q.Set, queryDetail(q))
	tr.SetOrigin(obs.OriginFrom(ctx))
	res, err := db.runQuery(ctx, q, tr)
	rec := db.obs.Finish(tr)
	return res, rec, err
}

// queryDetail summarizes the qualifying predicate for trace records.
func queryDetail(q Query) string {
	if q.Where == nil {
		return ""
	}
	return q.Where.Expr
}

// runQuery executes q in the right kind of session, charging I/O to tr:
//
//   - A query with pending deferred propagation on a path it resolves through
//     mutates derived state, so it runs as a write statement on its own set's
//     footprint (which covers every path the set's type is on): a drain that
//     fails partway rolls back instead of leaving derived state
//     half-propagated.
//   - Everything else runs in a read session under the shared lock: no set
//     locks, no lock wait. An emitting query's scratch file is session-local
//     and unlogged, and its registration is serialized by fsMu.
//
// A deferred propagation enqueued by a writer that commits while a read
// session is already executing is not drained by that query — the reader
// observes the committed terminal values with the hidden copies still stale,
// which is exactly the deferred path's published state; the next query
// drains it.
func (db *DB) runQuery(ctx context.Context, q Query, tr *obs.Trace) (*Result, error) {
	db.mu.RLock()
	drain := db.hasDeferredFor(q)
	if drain || q.EmitOutput {
		// Both are writes a follower must refuse rather than diverge: the
		// primary streams the drained state itself, and an unlogged scratch
		// file would desynchronize file IDs with it.
		if err := db.writable(); err != nil {
			db.mu.RUnlock()
			return nil, err
		}
	}
	if !drain {
		defer db.mu.RUnlock()
		return db.readSess(tr).query(ctx, q, false)
	}
	db.mu.RUnlock()
	var res *Result
	lsn, err := db.writeShot(ctx, tr, []string{q.Set}, func(s *sess) (qerr error) {
		res, qerr = s.query(ctx, q, true)
		return qerr
	})
	if err == nil {
		err = db.waitDurable(lsn, tr)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// query executes q through the session's views. drain says whether to flush
// pending deferred propagation for the resolved paths first — true in a
// write session whose footprint covers q.Set, false otherwise (runQuery
// routes one-shot queries that need a drain to a write statement).
func (s *sess) query(ctx context.Context, q Query, drain bool) (*Result, error) {
	typ, err := s.db.cat.SetType(q.Set)
	if err != nil {
		return nil, err
	}
	if drain {
		if err := s.flushDeferredFor(q); err != nil {
			return nil, err
		}
	}
	res := &Result{}
	// Plan after any drain (the drain can grow files and rewrite replicated
	// state the statistics should reflect).
	decision, ix := s.planQuery(q)
	res.Decision = decision
	// Advisor metadata: the planner's page prediction (paired with observed
	// pages at Finish) and the replicated-path keys the query reads through.
	s.tr.SetPredictedPages(decision.PredictedPages)
	s.tr.SetPaths(s.pathKeysForQuery(q))
	if !q.NoFuse {
		// Join-fusion memo for the query's functional joins; strictly
		// read-only state, discarded with the query.
		s.fuse = newFuseState()
		defer func() { s.fuse = nil }()
	}

	var out *heap.File
	if q.EmitOutput {
		out, err = s.newScratch()
		if err != nil {
			return nil, err
		}
	}

	// eval applies the predicates and builds the projected row; it touches
	// only read paths (pool, catalog, replicated state) and is safe to call
	// from parallel scan workers. emit accumulates a matching row and is
	// serialized by the caller.
	eval := func(oid pagefile.OID, obj *schema.Object) (Row, bool, error) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return Row{}, false, err
			}
		}
		if q.Where != nil {
			okRow, err := s.evalPred(q.Set, obj, q.Where)
			if err != nil || !okRow {
				return Row{}, false, err
			}
		}
		for i := range q.Filters {
			okRow, err := s.evalPred(q.Set, obj, &q.Filters[i])
			if err != nil || !okRow {
				return Row{}, false, err
			}
		}
		row := Row{OID: oid, Values: make([]schema.Value, len(q.Project))}
		for i, expr := range q.Project {
			v, err := s.resolveExpr(q.Set, obj, expr)
			if err != nil {
				return Row{}, false, err
			}
			row.Values[i] = v
		}
		return row, true, nil
	}
	emit := func(row Row) error {
		res.Rows = append(res.Rows, row)
		if out != nil {
			if _, err := out.Insert(encodeRow(row)); err != nil {
				return err
			}
		}
		return nil
	}
	process := func(oid pagefile.OID, obj *schema.Object) error {
		row, ok, err := eval(oid, obj)
		if err != nil || !ok {
			return err
		}
		return emit(row)
	}

	ran := false
	if decision.Access == plan.IndexRange && ix != nil {
		ran, err = s.indexedAccess(ctx, q, typ, ix, res, process)
		if err != nil {
			return nil, err
		}
	}
	if !ran {
		file, err := s.SetFile(q.Set)
		if err != nil {
			return nil, err
		}
		if err := s.scanProcess(file, typ, eval, emit); err != nil {
			return nil, err
		}
	}
	if out != nil {
		res.OutputPages, err = out.NumPages()
		if err != nil {
			return nil, err
		}
	}
	s.tr.SetRows(int64(len(res.Rows)))
	return res, nil
}

// scanProcess drives eval over every record of file — fanned out to
// ScanWorkers goroutines when configured — and feeds matches to emit, which
// is always called serially (under a mutex in the parallel case, so result
// accumulation and output-file inserts stay single-writer). Parallel scan
// workers share file's trace (the counters are atomic), so the whole scan's
// page I/O merges into the owning operation's trace.
func (s *sess) scanProcess(file *heap.File, typ *schema.Type, eval func(pagefile.OID, *schema.Object) (Row, bool, error), emit func(Row) error) error {
	if s.db.workers > 1 {
		s.tr.SetPlan("scan-parallel")
		var mu sync.Mutex
		return file.ScanParallel(s.db.workers, func(oid pagefile.OID, payload []byte) error {
			obj, err := schema.Decode(typ, payload)
			if err != nil {
				return err
			}
			row, ok, err := eval(oid, obj)
			if err != nil || !ok {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			return emit(row)
		})
	}
	s.tr.SetPlan("scan")
	return file.Scan(func(oid pagefile.OID, payload []byte) error {
		obj, err := schema.Decode(typ, payload)
		if err != nil {
			return err
		}
		row, ok, err := eval(oid, obj)
		if err != nil || !ok {
			return err
		}
		return emit(row)
	})
}

// deferredPathsFor returns the deferred replication paths with pending
// propagations that the query's expressions resolve through. Safe under
// either lock mode: the catalog is read-only here and the pending queue is
// internally synchronized.
func (db *DB) deferredPathsFor(q Query) []*catalog.Path {
	exprs := append([]string(nil), q.Project...)
	if q.Where != nil {
		exprs = append(exprs, q.Where.Expr)
	}
	for _, f := range q.Filters {
		exprs = append(exprs, f.Expr)
	}
	var paths []*catalog.Path
	add := func(p *catalog.Path) {
		for _, q := range paths {
			if q == p {
				return
			}
		}
		paths = append(paths, p)
	}
	for _, expr := range exprs {
		refs, field := splitExpr(expr)
		if len(refs) == 0 {
			continue
		}
		spec := catalog.PathSpec{Source: q.Set, Refs: refs, Field: field}
		if p, ok := db.cat.FindPath(spec, catalog.InPlace); ok && p.Deferred && db.mgr.HasPending(p) {
			add(p)
		}
		// A deferred ref-replicating prefix (§3.3.3) may also serve this
		// expression; those count too.
		for k := len(refs); k >= 2; k-- {
			prefixSpec := catalog.PathSpec{Source: q.Set, Refs: refs[:k-1], Field: refs[k-1]}
			if p, ok := db.cat.FindPath(prefixSpec, catalog.InPlace); ok && p.Deferred && db.mgr.HasPending(p) {
				add(p)
			}
		}
	}
	return paths
}

// hasDeferredFor reports whether the query would have to drain deferred
// propagation (and therefore needs a write session covering its set).
func (db *DB) hasDeferredFor(q Query) bool { return len(db.deferredPathsFor(q)) > 0 }

// flushDeferredFor drains deferred propagation for every replication path
// the query's expressions resolve through ("not propagated until needed",
// paper §8): the first read after a burst of terminal updates pays one
// propagation per distinct updated terminal.
func (s *sess) flushDeferredFor(q Query) error {
	for _, p := range s.db.deferredPathsFor(q) {
		if err := s.mgr.FlushPath(p); err != nil {
			return err
		}
	}
	return nil
}

// idxEpochRetries bounds how many times a snapshot index traversal re-runs
// when concurrent commits keep republishing the index file mid-walk before
// a read session falls back to serializing behind the set's lock.
const idxEpochRetries = 4

// indexedAccess drives process over the records qualified by the planner's
// chosen index range, in key order. It reports false when the session has no
// view of the index (the caller falls back to a scan).
//
// Execution is page-batched: the qualifying OIDs are collected from the leaf
// chain first (whose pages the iterator itself reads ahead), their distinct
// heap pages are then warmed in sorted vectored batches through the
// scan-readahead machinery, and the objects are processed from the pool —
// the index-range analogue of the heap scan's page-at-a-time evaluation.
//
// Through a snapshot view a B-tree descent is only page-atomic, and a commit
// landing between two page reads can tear the traversal (a split moves keys
// the walk then misses). Snapshot traversals therefore validate the collected
// OIDs against the index file's commit epoch, retrying on change; if the
// epoch keeps moving, a read session serializes briefly behind the set's
// lock (charged as lock wait — the pathological case); a write session, which
// cannot take set locks out of footprint order, fails with ErrWriteConflict.
func (s *sess) indexedAccess(ctx context.Context, q Query, typ *schema.Type, ix *catalog.Index, res *Result, process func(pagefile.OID, *schema.Object) error) (bool, error) {
	tree, snapshot, ok := s.treeView(ix.Name)
	if !ok {
		return false, nil
	}
	res.UsedIndex = ix.Name
	s.tr.SetPlan("index:" + ix.Name)
	lo, hi := keyRange(q.Where)

	var oids []pagefile.OID
	var err error
	if snapshot {
		oids, err = s.snapshotIndexRange(ctx, q.Set, ix, tree, lo, hi)
	} else {
		err = tree.Range(lo, hi, func(_ btree.Key, oid pagefile.OID) bool {
			oids = append(oids, oid)
			return true
		})
	}
	if err != nil {
		return true, err
	}
	s.prefetchOIDPages(oids)
	for _, oid := range oids {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return true, err
			}
		}
		obj, err := s.readObject(oid, typ)
		if err != nil {
			return true, err
		}
		// The predicate is rechecked on the resolved value: string keys are
		// prefix-truncated and range bounds may be exclusive.
		if err := process(oid, obj); err != nil {
			return true, err
		}
	}
	return true, nil
}

// prefetchOIDPages warms the distinct heap pages behind a batch of qualifying
// OIDs, turning the index fetch's scattered single-page reads into sorted
// vectored batches. Plain-mode views only — capture and snapshot views read
// page-at-a-time for the same reason heap.Scan disables readahead there
// (prefetch installs raw frames, which must not race concurrent write-backs)
// — and only with readahead configured, preserving the paper-figure
// invariant that readahead off means zero prefetches and misses equal store
// reads.
func (s *sess) prefetchOIDPages(oids []pagefile.OID) {
	if len(oids) < 2 || s.db.pool.Readahead() <= 0 || !s.plainViews() {
		return
	}
	fid := oids[0].File
	pages := make([]uint32, 0, len(oids))
	for _, oid := range oids {
		if oid.File == fid {
			pages = append(pages, oid.Page)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	dedup := pages[:1]
	for _, p := range pages[1:] {
		if p != dedup[len(dedup)-1] {
			dedup = append(dedup, p)
		}
	}
	s.db.pool.PrefetchPagesT(fid, dedup, s.tr)
}

// snapshotIndexRange collects the OIDs in [lo, hi] from a snapshot tree
// view, validating the traversal against the index file's commit epoch. A
// traversal error with a changed epoch counts as torn (a mid-walk commit can
// route the descent through a page image that no longer parses) and retries
// like a key tear would.
func (s *sess) snapshotIndexRange(ctx context.Context, set string, ix *catalog.Index, tree *btree.Tree, lo, hi btree.Key) ([]pagefile.OID, error) {
	pool := s.db.pool
	var oids []pagefile.OID
	collect := func() error {
		oids = oids[:0]
		return tree.Range(lo, hi, func(_ btree.Key, oid pagefile.OID) bool {
			oids = append(oids, oid)
			return true
		})
	}
	for attempt := 0; attempt <= idxEpochRetries; attempt++ {
		e0 := pool.FileEpoch(ix.FileID)
		err := collect()
		if pool.FileEpoch(ix.FileID) == e0 {
			if err != nil {
				return nil, err
			}
			return oids, nil
		}
		// Torn: a commit republished index pages mid-walk; discard and retry.
	}
	if s.writes() {
		// Taking a set lock outside the held footprint here could deadlock
		// against a writer acquiring its sorted footprint; refuse instead.
		return nil, fmt.Errorf("%w: index %s outside the footprint %v keeps changing under snapshot traversal", ErrWriteConflict, ix.Name, s.fp.sets)
	}
	// Read session: serialize briefly behind the set's writers. The set lock
	// covers the index file (index trees are part of every footprint built
	// over their set), so the traversal is stable while we hold it.
	if err := s.db.setLocks.acquire(ctx, []string{set}, s.tr); err != nil {
		return nil, err
	}
	defer s.db.setLocks.release([]string{set})
	if err := collect(); err != nil {
		return nil, err
	}
	return oids, nil
}

// keyRange computes the inclusive key range covering a predicate; exactness
// comes from the recheck.
func keyRange(p *Pred) (btree.Key, btree.Key) {
	k := keyFor(p.Value)
	switch p.Op {
	case OpEQ:
		return k, k
	case OpLT, OpLE:
		return btree.MinKey, k
	case OpGT, OpGE:
		return k, btree.MaxKey
	case OpBetween:
		return k, keyFor(p.Value2)
	default:
		return btree.MinKey, btree.MaxKey
	}
}

func splitExpr(expr string) (refs []string, field string) {
	parts := strings.Split(expr, ".")
	return parts[:len(parts)-1], parts[len(parts)-1]
}

// evalPred evaluates a predicate against an object, resolving path
// expressions through replicated data when possible and charging any reads
// to the session's trace.
func (s *sess) evalPred(set string, obj *schema.Object, p *Pred) (bool, error) {
	v, err := s.resolveExpr(set, obj, p.Expr)
	if err != nil {
		return false, err
	}
	c, err := compareValues(v, p.Value)
	if err != nil {
		return false, err
	}
	switch p.Op {
	case OpEQ:
		return c == 0, nil
	case OpLT:
		return c < 0, nil
	case OpLE:
		return c <= 0, nil
	case OpGT:
		return c > 0, nil
	case OpGE:
		return c >= 0, nil
	case OpBetween:
		if c < 0 {
			return false, nil
		}
		c2, err := compareValues(v, p.Value2)
		if err != nil {
			return false, err
		}
		return c2 <= 0, nil
	default:
		return false, fmt.Errorf("engine: unknown operator %v", p.Op)
	}
}

func compareValues(a, b schema.Value) (int, error) {
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("engine: cannot compare %s with %s", a.Kind, b.Kind)
	}
	switch a.Kind {
	case schema.KindInt:
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		}
		return 0, nil
	case schema.KindFloat:
		switch {
		case a.F < b.F:
			return -1, nil
		case a.F > b.F:
			return 1, nil
		}
		return 0, nil
	case schema.KindString:
		return strings.Compare(a.S, b.S), nil
	default:
		return 0, fmt.Errorf("engine: cannot compare %s values", a.Kind)
	}
}

// resolveExpr resolves a projection/predicate expression against an object:
// a plain field directly; a dotted path through, in order of preference,
//
//  1. an exactly matching in-place replication path (zero extra I/O),
//  2. an exactly matching separate replication path (one S′ fetch),
//  3. a replicated reference attribute covering a prefix (§3.3.3 path
//     collapsing), continuing with a shortened functional join,
//  4. a full functional join.
func (s *sess) resolveExpr(set string, obj *schema.Object, expr string) (schema.Value, error) {
	refs, field := splitExpr(expr)
	if len(refs) == 0 {
		v, ok := obj.Get(field)
		if !ok {
			return schema.Value{}, fmt.Errorf("engine: set %s has no field %q", set, field)
		}
		return v, nil
	}
	// 1-2. Exact replicated path.
	spec := catalog.PathSpec{Source: set, Refs: refs, Field: field}
	if p, ok := s.db.cat.FindPath(spec, catalog.InPlace); ok {
		return s.readReplicatedByName(p, obj, field)
	}
	if p, ok := s.db.cat.FindPath(spec, catalog.Separate); ok {
		return s.readReplicatedByName(p, obj, field)
	}
	// 3. Longest replicated reference prefix (collapsing).
	for k := len(refs) - 1; k >= 1; k-- {
		prefixSpec := catalog.PathSpec{Source: set, Refs: refs[:k], Field: refs[k]}
		p, ok := s.db.cat.FindPath(prefixSpec, catalog.InPlace)
		if !ok {
			continue
		}
		hidden, err := s.readReplicatedByName(p, obj, refs[k])
		if err != nil {
			return schema.Value{}, err
		}
		if hidden.Kind != schema.KindRef {
			continue
		}
		// Jump to position k+1 and walk the rest functionally. The walk from
		// a given target is the same for every source record that shares it,
		// so the fused terminal memo applies here too.
		termField, _ := p.TerminalType().Field(p.Spec.Field)
		startType, ok := s.db.cat.TypeByName(termField.RefType)
		if !ok {
			return schema.Value{}, fmt.Errorf("engine: unknown type %s", termField.RefType)
		}
		if f := s.fuse; f != nil {
			tk := termKey{oid: hidden.R, expr: expr}
			if v, hit := f.term(tk); hit {
				return v, nil
			}
			v, err := s.walkFunctional(startType, hidden.R, refs[k+1:], field)
			if err == nil {
				f.setTerm(tk, v)
			}
			return v, err
		}
		return s.walkFunctional(startType, hidden.R, refs[k+1:], field)
	}
	// 4. Full functional join, fused when the memo is installed: the terminal
	// value reached from a given first-level target is the same for every
	// source record referencing it.
	typ, err := s.db.cat.SetType(set)
	if err != nil {
		return schema.Value{}, err
	}
	if f := s.fuse; f != nil {
		if v0, ok := obj.Get(refs[0]); ok && v0.Kind == schema.KindRef {
			k := termKey{oid: v0.R, expr: expr}
			if v, hit := f.term(k); hit {
				return v, nil
			}
			v, err := s.walkObjectPath(typ, obj, refs, field)
			if err == nil {
				f.setTerm(k, v)
			}
			return v, err
		}
	}
	return s.walkObjectPath(typ, obj, refs, field)
}

// walkFunctional follows refs starting from an OID of type startType.
func (s *sess) walkFunctional(startType *schema.Type, start pagefile.OID, refs []string, field string) (schema.Value, error) {
	if start.IsNil() {
		return schema.Value{}, nil
	}
	obj, err := s.readObjectFused(start, startType)
	if err != nil {
		return schema.Value{}, err
	}
	return s.walkObjectPath(startType, obj, refs, field)
}

// walkObjectPath performs the functional joins of a path expression,
// reading one object per level.
func (s *sess) walkObjectPath(typ *schema.Type, obj *schema.Object, refs []string, field string) (schema.Value, error) {
	cur := obj
	curType := typ
	for _, r := range refs {
		f, ok := curType.Field(r)
		if !ok || f.Kind != schema.KindRef {
			return schema.Value{}, fmt.Errorf("engine: %s has no reference attribute %q", curType.Name, r)
		}
		v, _ := cur.Get(r)
		if v.R.IsNil() {
			// Broken chain: zero value of the terminal field if resolvable,
			// else an invalid value.
			return schema.Value{}, nil
		}
		nextType, ok := s.db.cat.TypeByName(f.RefType)
		if !ok {
			return schema.Value{}, fmt.Errorf("engine: unknown type %s", f.RefType)
		}
		next, err := s.readObjectFused(v.R, nextType)
		if err != nil {
			return schema.Value{}, err
		}
		cur, curType = next, nextType
	}
	v, ok := cur.Get(field)
	if !ok {
		return schema.Value{}, fmt.Errorf("engine: %s has no field %q", curType.Name, field)
	}
	return v, nil
}

// readReplicatedByName resolves a replicated field by name on path p.
func (s *sess) readReplicatedByName(p *catalog.Path, obj *schema.Object, field string) (schema.Value, error) {
	fields := p.Fields
	if p.Strategy == catalog.Separate {
		fields = p.Group.Fields
	}
	for _, f := range fields {
		if f.Name == field {
			return s.mgr.ReadReplicated(p, obj, f.Idx, s.tr)
		}
	}
	return schema.Value{}, fmt.Errorf("engine: path %s does not replicate %q", p.Spec, field)
}

// encodeRow serializes a result tuple for the output file.
func encodeRow(r Row) []byte {
	buf := r.OID.AppendTo(nil)
	buf = append(buf, byte(len(r.Values)))
	for _, v := range r.Values {
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case schema.KindInt:
			for i := 0; i < 8; i++ {
				buf = append(buf, byte(uint64(v.I)>>(8*i)))
			}
		case schema.KindFloat:
			buf = append(buf, []byte(fmt.Sprintf("%g", v.F))...)
			buf = append(buf, 0)
		case schema.KindString:
			buf = append(buf, byte(len(v.S)), byte(len(v.S)>>8))
			buf = append(buf, v.S...)
		case schema.KindRef:
			buf = v.R.AppendTo(buf)
		default:
			buf = append(buf, 0)
		}
	}
	return buf
}

// UpdateWhere applies vals to every object of set matching where — the cost
// model's update query — returning the number updated and the operation's
// completed obs.Record: collection reads, object updates, and all replication
// propagation the updates triggered, attributed to this one operation. The
// collection phase fans predicate evaluation out to ScanWorkers goroutines
// when configured (the matches are sorted back to physical order); the
// mutations themselves run serially within the statement, under the per-set
// locks of the set's footprint. Cancellation of ctx (nil means none) is
// checked per record during collection and per object during the update
// pass; a cancelled operation rolls back.
func (db *DB) UpdateWhere(ctx context.Context, set string, where Pred, vals map[string]schema.Value) (int, obs.Record, error) {
	if err := db.writable(); err != nil {
		return 0, obs.Record{}, err
	}
	tr := db.obs.Start(obs.KindUpdate, set, where.Expr)
	tr.SetOrigin(obs.OriginFrom(ctx))
	var n int
	lsn, err := db.writeShot(ctx, tr, []string{set}, func(s *sess) (uerr error) {
		n, uerr = s.updateWhere(ctx, set, where, vals)
		return uerr
	})
	if err == nil {
		err = db.waitDurable(lsn, tr)
	}
	rec := db.obs.Finish(tr)
	if err != nil {
		return 0, rec, err
	}
	return n, rec, nil
}

func (s *sess) updateWhere(ctx context.Context, set string, where Pred, vals map[string]schema.Value) (int, error) {
	typ, err := s.db.cat.SetType(set)
	if err != nil {
		return 0, err
	}
	if err := s.flushDeferredFor(Query{Set: set, Where: &where}); err != nil {
		return 0, err
	}
	q := Query{Set: set, Where: &where}
	decision, ix := s.planQuery(q)
	// Advisor metadata: prediction for drift tracking, written fields and the
	// replication paths the update propagates into for the workload mix.
	s.tr.SetPredictedPages(decision.PredictedPages)
	s.stampUpdateMeta(typ, vals)
	// Collect matching OIDs first (index or scan), then update; collecting
	// first keeps the scan stable under heap mutation. No fusion memo here:
	// the mutation pass would invalidate it mid-statement.
	var matches []pagefile.OID
	collect := func(oid pagefile.OID, obj *schema.Object) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ok, err := s.evalPred(set, obj, &where)
		if err != nil {
			return err
		}
		if ok {
			matches = append(matches, oid)
		}
		return nil
	}
	ran := false
	if decision.Access == plan.IndexRange && ix != nil {
		ran, err = s.indexedAccess(ctx, q, typ, ix, &Result{}, collect)
		if err != nil {
			return 0, err
		}
	}
	if !ran {
		file, err := s.SetFile(set)
		if err != nil {
			return 0, err
		}
		eval := func(oid pagefile.OID, obj *schema.Object) (Row, bool, error) {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return Row{}, false, err
				}
			}
			ok, err := s.evalPred(set, obj, &where)
			return Row{OID: oid}, ok, err
		}
		emit := func(row Row) error {
			matches = append(matches, row.OID)
			return nil
		}
		if err := s.scanProcess(file, typ, eval, emit); err != nil {
			return 0, err
		}
		if s.db.workers > 1 {
			// Parallel collection delivers matches in arbitrary order; sort
			// back to physical order so the update pass (and any forwarding
			// it causes) is deterministic regardless of worker count.
			sort.Slice(matches, func(i, j int) bool { return matches[i].Less(matches[j]) })
		}
	}
	for _, oid := range matches {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		if err := s.update(set, oid, vals); err != nil {
			return 0, err
		}
	}
	s.tr.SetRows(int64(len(matches)))
	return len(matches), nil
}
