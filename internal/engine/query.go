package engine

import (
	"context"
	"fmt"
	"sort"
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
// (buffer hits/misses, store reads/writes) attributed exactly to this query
// regardless of what ran concurrently, plus plan kind, predicted pages and
// the wall-time breakdown. The record — not a global IO() delta, which counts
// every concurrent operation's pages — is the way to measure per-query I/O.
//
// Reads — including output-emitting queries — run under the shared lock
// against page-level snapshots, fully concurrent with writers and never
// charged any lock wait; only a query that must drain deferred propagation
// runs as a write statement (the drain mutates derived state) and takes its
// set's footprint locks.
//
// Cancellation of ctx (nil means none) is checked at page boundaries — once
// per heap page of a scan (in every parallel scan worker) and each time an
// index range moves to another heap page — so a cancelled query stops
// fetching pages promptly. With ScanWorkers > 1 a non-indexed query
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
	prog, err := db.compileQuery(q, !q.NoFuse)
	if err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	drain := len(db.pendingDeferred(prog)) > 0
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
		return db.readSess(tr).query(ctx, q, prog, false)
	}
	db.mu.RUnlock()
	var res *Result
	lsn, err := db.writeShot(ctx, tr, []string{q.Set}, func(s *sess) error {
		// The catalog may have changed between the two locks: compile again.
		prog, err := db.compileQuery(q, !q.NoFuse)
		if err == nil {
			res, err = s.query(ctx, q, prog, true)
		}
		return err
	})
	if err == nil {
		err = db.waitDurable(lsn, tr)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// query executes q, compiled to prog, through the session's views: plan, then
// drive the program over the chosen access path. drain says whether to flush
// pending deferred propagation for the resolved paths first — true in a
// write session whose footprint covers q.Set, false otherwise (runQuery
// routes one-shot queries that need a drain to a write statement).
func (s *sess) query(ctx context.Context, q Query, prog *rowProgram, drain bool) (*Result, error) {
	if drain {
		if err := s.flushDeferred(prog); err != nil {
			return nil, err
		}
	}
	res := &Result{}
	// Plan after any drain (the drain can grow files and rewrite replicated
	// state the statistics should reflect).
	decision, ix := s.planQuery(q, prog)
	res.Decision = decision
	// Advisor metadata: the planner's page prediction (paired with observed
	// pages at Finish) and the replicated-path keys the query reads through.
	s.tr.SetPredictedPages(decision.PredictedPages)
	s.tr.SetPaths(prog.pathKeys())

	var out *heap.File
	if q.EmitOutput {
		var err error
		if out, err = s.newScratch(); err != nil {
			return nil, err
		}
	}
	// emit accumulates a matching row; its callers serialize it.
	emit := func(row Row) error {
		res.Rows = append(res.Rows, row)
		if out != nil {
			if _, err := out.Insert(encodeRow(row)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := s.access(ctx, q.Set, prog, decision, ix, res, emit); err != nil {
		return nil, err
	}
	if out != nil {
		var err error
		if res.OutputPages, err = out.NumPages(); err != nil {
			return nil, err
		}
	}
	s.tr.SetRows(int64(len(res.Rows)))
	return res, nil
}

// access drives prog over set's records along the planner's chosen access
// path — the index range, or a scan when there is none or the session has no
// view of the index — feeding every row that passes to emit.
func (s *sess) access(ctx context.Context, set string, prog *rowProgram, decision *plan.Decision, ix *catalog.Index, res *Result, emit func(Row) error) error {
	file, err := s.SetFile(set)
	if err != nil {
		return err
	}
	if decision.Access == plan.IndexRange && ix != nil {
		if ran, err := s.indexedAccess(ctx, set, file, ix, res, prog, emit); ran || err != nil {
			return err
		}
	}
	return s.scanProcess(ctx, file, prog, emit)
}

// scanProcess evaluates prog over every record of file — fanned out to
// ScanWorkers goroutines, each with its own rowWorker, when configured — and
// feeds matches to emit, which is always called serially (under a mutex, so
// result accumulation and output-file inserts stay single-writer). Parallel
// scan workers share file's trace (the counters are atomic), so the whole
// scan's page I/O merges into the owning operation's trace.
func (s *sess) scanProcess(ctx context.Context, file *heap.File, prog *rowProgram, emit func(Row) error) error {
	label := "scan"
	if s.db.workers > 1 {
		label = "scan-parallel"
	}
	s.tr.SetPlan(label)
	var mu sync.Mutex
	return file.ScanParallel(s.db.workers, func() func(pagefile.OID, []byte) error {
		w := s.newRowWorker(ctx, prog)
		return func(oid pagefile.OID, payload []byte) error {
			vals, ok, err := w.eval(oid, payload)
			if err != nil || !ok {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			return emit(Row{OID: oid, Values: vals})
		}
	})
}

// pendingDeferred returns the deferred replication paths prog reads hidden
// values of that have propagations pending — the query must drain them
// first, and therefore needs a write session covering its set. Safe under
// either lock mode: the catalog is read-only here and the pending queue is
// internally synchronized.
func (db *DB) pendingDeferred(prog *rowProgram) []*catalog.Path {
	var pending []*catalog.Path
next:
	for _, a := range prog.accs {
		if a.path == nil || !a.path.Deferred || !db.mgr.HasPending(a.path) {
			continue
		}
		for _, seen := range pending {
			if seen == a.path {
				continue next
			}
		}
		pending = append(pending, a.path)
	}
	return pending
}

// flushDeferred drains deferred propagation for every replication path the
// program resolves through ("not propagated until needed", paper §8): the
// first read after a burst of terminal updates pays one propagation per
// distinct updated terminal.
func (s *sess) flushDeferred(prog *rowProgram) error {
	for _, p := range s.db.pendingDeferred(prog) {
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

// indexedAccess evaluates prog over the records qualified by the planner's
// chosen index range, in key order, feeding matches to emit. It reports false
// when the session has no view of the index (the caller falls back to a
// scan). file is the indexed set's heap file.
//
// The qualifying OIDs are collected from the leaf chain first, then their
// records are read and evaluated in that order.
//
// Through a snapshot view a B-tree descent is only page-atomic, and a commit
// landing between two page reads can tear the traversal (a split moves keys
// the walk then misses). Snapshot traversals therefore validate the collected
// OIDs against the index file's commit epoch, retrying on change; if the
// epoch keeps moving, a read session serializes briefly behind the set's
// lock (charged as lock wait — the pathological case); a write session, which
// cannot take set locks out of footprint order, fails with ErrWriteConflict.
func (s *sess) indexedAccess(ctx context.Context, set string, file *heap.File, ix *catalog.Index, res *Result, prog *rowProgram, emit func(Row) error) (bool, error) {
	tree, snapshot, ok := s.treeView(ix.Name)
	if !ok {
		return false, nil
	}
	res.UsedIndex = ix.Name
	s.tr.SetPlan("index:" + ix.Name)
	where := &prog.preds[0]
	lo, hi := keyRange(where.op, where.lo, where.hi)

	var oids []pagefile.OID
	var err error
	if snapshot {
		oids, err = s.snapshotIndexRange(ctx, set, ix, tree, lo, hi)
	} else {
		err = tree.Range(lo, hi, func(_ btree.Key, oid pagefile.OID) bool {
			oids = append(oids, oid)
			return true
		})
	}
	if err != nil {
		return true, err
	}
	w := s.newRowWorker(ctx, prog)
	// Each record is copied out of its page into one buffer the loop reuses:
	// evaluation may read other pages (an S′ object, a walk), which a read
	// callback may not.
	var payload []byte
	for _, oid := range oids {
		payload, err = file.AppendRecord(payload[:0], oid)
		if err != nil {
			return true, err
		}
		// The predicate is rechecked on the resolved value: string keys are
		// prefix-truncated and range bounds may be exclusive.
		vals, ok, err := w.eval(oid, payload)
		if err != nil {
			return true, err
		}
		if ok {
			if err := emit(Row{OID: oid, Values: vals}); err != nil {
				return true, err
			}
		}
	}
	return true, nil
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
func keyRange(op Op, v, v2 schema.Value) (btree.Key, btree.Key) {
	k := keyFor(v)
	switch op {
	case OpEQ:
		return k, k
	case OpLT, OpLE:
		return btree.MinKey, k
	case OpGT, OpGE:
		return k, btree.MaxKey
	case OpBetween:
		return k, keyFor(v2)
	default:
		return btree.MinKey, btree.MaxKey
	}
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
// checked at page boundaries during collection and per object during the
// update pass; a cancelled operation rolls back.
func (db *DB) UpdateWhere(ctx context.Context, set string, where Pred, vals map[string]schema.Value) (int, obs.Record, error) {
	return db.ReplaceWhere(ctx, Query{Set: set, Where: &where}, vals)
}

// ReplaceWhere is UpdateWhere over a whole selection — q.Where and every
// q.Filters conjunct; projections and the other options are ignored — as one
// write session: the objects are collected under the set's footprint locks,
// so no concurrent writer can change one between its test and its update,
// and all of them are updated in one commit or none is.
func (db *DB) ReplaceWhere(ctx context.Context, q Query, vals map[string]schema.Value) (int, obs.Record, error) {
	return db.writeWhere(ctx, obs.KindUpdate, queryDetail(q), q.Set, func(s *sess) (int, error) {
		return s.updateWhere(ctx, q, vals)
	})
}

// DeleteWhere deletes every object of q.Set matching q.Where and every
// q.Filters conjunct in one write session, like ReplaceWhere: one refused
// or failed delete leaves every object in place.
func (db *DB) DeleteWhere(ctx context.Context, q Query) (int, obs.Record, error) {
	return db.writeWhere(ctx, obs.KindDML, "delete", q.Set, func(s *sess) (int, error) {
		return s.deleteWhere(ctx, q)
	})
}

// writeWhere runs fn as one durable write statement on set, traced as kind.
func (db *DB) writeWhere(ctx context.Context, kind, detail, set string, fn func(*sess) (int, error)) (int, obs.Record, error) {
	if err := db.writable(); err != nil {
		return 0, obs.Record{}, err
	}
	tr := db.obs.Start(kind, set, detail)
	tr.SetOrigin(obs.OriginFrom(ctx))
	var n int
	lsn, err := db.writeShot(ctx, tr, []string{set}, func(s *sess) (ferr error) {
		n, ferr = fn(s)
		return ferr
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

func (s *sess) updateWhere(ctx context.Context, q Query, vals map[string]schema.Value) (int, error) {
	typ, err := s.db.cat.SetType(q.Set)
	if err != nil {
		return 0, err
	}
	// Advisor metadata: the written fields and the replication paths the
	// update propagates into, for the workload mix.
	s.stampUpdateMeta(typ, vals)
	return s.mutateWhere(ctx, q, func(oid pagefile.OID) error { return s.update(q.Set, oid, vals) })
}

func (s *sess) deleteWhere(ctx context.Context, q Query) (int, error) {
	return s.mutateWhere(ctx, q, func(oid pagefile.OID) error { return s.delete(q.Set, oid) })
}

// mutateWhere applies mutate to every object of q.Set matching q.Where and
// q.Filters, returning how many there were.
func (s *sess) mutateWhere(ctx context.Context, q Query, mutate func(pagefile.OID) error) (int, error) {
	// The collection pass is the query {Set, Where, Filters} with nothing
	// projected and no fusion memo: the mutation pass would invalidate it
	// mid-statement.
	q = Query{Set: q.Set, Where: q.Where, Filters: q.Filters}
	prog, err := s.db.compileQuery(q, false)
	if err != nil {
		return 0, err
	}
	if err := s.flushDeferred(prog); err != nil {
		return 0, err
	}
	decision, ix := s.planQuery(q, prog)
	// Advisor metadata: the prediction, for drift tracking.
	s.tr.SetPredictedPages(decision.PredictedPages)
	// Collect matching OIDs first (index or scan), then mutate; collecting
	// first keeps the scan stable under heap mutation.
	var matches []pagefile.OID
	collect := func(row Row) error {
		matches = append(matches, row.OID)
		return nil
	}
	res := &Result{}
	if err := s.access(ctx, q.Set, prog, decision, ix, res, collect); err != nil {
		return 0, err
	}
	if res.UsedIndex == "" && s.db.workers > 1 {
		// Parallel collection delivers matches in arbitrary order; sort back
		// to physical order so the mutation pass (and any forwarding it
		// causes) is deterministic regardless of worker count.
		sort.Slice(matches, func(i, j int) bool { return matches[i].Less(matches[j]) })
	}
	for _, oid := range matches {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		if err := mutate(oid); err != nil {
			return 0, err
		}
	}
	s.tr.SetRows(int64(len(matches)))
	return len(matches), nil
}
