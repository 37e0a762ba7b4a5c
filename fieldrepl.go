package fieldrepl

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/engine"
	"github.com/exodb/fieldrepl/internal/extra"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Config configures a database.
type Config struct {
	// PoolPages is the buffer pool size in 4 KiB pages (default 256).
	PoolPages int
	// Dir, when non-empty, stores the database in page files under this
	// directory; otherwise it is in-memory.
	Dir string
	// InlineMax is the link-inlining threshold of paper §4.3.1: link
	// structures with at most this many referrers live inline in the owning
	// object. Default 1; set negative to disable inlining.
	InlineMax int
	// PoolShards stripes the buffer pool over this many lock shards so
	// concurrent readers scale across cores (default 1, the historical
	// single-clock pool the paper-figure reproductions assume).
	PoolShards int
	// ScanWorkers fans non-indexed query predicate evaluation out to this
	// many goroutines (default 1, which preserves the sequential scan's
	// deterministic result order).
	ScanWorkers int
	// WALPath relocates the write-ahead log (default Dir/wal.log). File-backed
	// databases log every transaction — explicit Begin/Commit and the implicit
	// single-statement transactions one-shot DML runs as — before its pages
	// can reach the data files, and replay committed-but-unapplied work when
	// reopened after a crash.
	WALPath string
	// CommitInterval is the optional group-commit batching window: each
	// committer waits this long before forcing the log, giving concurrent
	// commits time to share one fsync. Zero (the default) forces immediately;
	// concurrent committers still batch via the leader/follower fsync.
	CommitInterval time.Duration
	// AdvisorDisabled turns the workload advisor off: completed traces are
	// not aggregated and Advise reports Enabled=false.
	AdvisorDisabled bool
}

// DB is a database handle. It is safe for concurrent use and holds no lock
// of its own: all coordination happens inside the engine. Read-only
// operations (Get, Query, Count, the stats accessors) run concurrently on
// the snapshot read path, and mutations coordinate through the engine's
// per-set write locks, in memory and on disk alike. Concurrent writers overlap
// in the group-commit durability wait, which is what lets them share fsyncs. DDL, cache control
// and lifecycle (Close, CrashStop) serialize on the engine's exclusive lock,
// which waits out in-flight statements; a retrieve never queues behind
// writers.
type DB struct {
	e        *engine.DB
	nextSess atomic.Uint64
	def      *Session
}

// newDB wraps an opened engine in a public handle with its default session.
func newDB(e *engine.DB) *DB {
	db := &DB{e: e}
	db.def = db.NewSession()
	return db
}

func (cfg Config) engineConfig() engine.Config {
	return engine.Config{
		PoolPages: cfg.PoolPages, Dir: cfg.Dir, InlineMax: cfg.InlineMax,
		PoolShards: cfg.PoolShards, ScanWorkers: cfg.ScanWorkers,
		WALPath: cfg.WALPath, CommitInterval: cfg.CommitInterval,
		AdvisorDisabled: cfg.AdvisorDisabled,
	}
}

// Open creates a database.
func Open(cfg Config) (*DB, error) {
	e, err := engine.Open(cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	return newDB(e), nil
}

// Close flushes and releases the database, waiting for in-flight statements
// to finish. Statements issued afterwards fail, as does a second Close.
func (db *DB) Close() error { return db.e.Close() }

// DefineType registers an object type.
func (db *DB) DefineType(name string, fields []Field) error {
	sf := make([]schema.Field, len(fields))
	for i, f := range fields {
		sf[i] = schema.Field{Name: f.Name, Kind: schema.Kind(f.Kind), RefType: f.RefType}
	}
	return db.e.DefineType(name, sf)
}

// CreateSet creates a named top-level set of the given type, stored as its
// own file.
func (db *DB) CreateSet(name, typeName string) error {
	return db.e.CreateSet(name, typeName)
}

// Replicate declares a replication path in dotted syntax — "Emp1.dept.name",
// "Emp1.dept.org.name", "Emp1.dept.all" (full object replication), or
// "Emp1.dept.org" (reference replication, collapsing the path) — and builds
// the replicated state over existing data.
func (db *DB) Replicate(path string, strategy Strategy, opts ...ReplicateOption) error {
	var o replicateOpts
	for _, f := range opts {
		f(&o)
	}
	var copts []catalog.PathOption
	if o.collapsed {
		copts = append(copts, catalog.WithCollapsed())
	}
	if o.deferred {
		copts = append(copts, catalog.WithDeferred())
	}
	return db.e.Replicate(path, catalog.Strategy(strategy), copts...)
}

// Inverse answers a bidirectional-reference query: the OIDs of objects in
// the source set whose reference chain refExpr ("dept", "dept.org") reaches
// target. When a replication path maintains the needed inverted-path link
// the answer comes directly from link structures without scanning;
// viaInvertedPath reports whether it did.
func (db *DB) Inverse(source, refExpr string, target OID) (oids []OID, viaInvertedPath bool, err error) {
	raw, via, err := db.e.Inverse(source, refExpr, target.inner)
	if err != nil {
		return nil, false, err
	}
	out := make([]OID, len(raw))
	for i, o := range raw {
		out[i] = OID{inner: o}
	}
	return out, via == "inverted-path", nil
}

// FlushReplication applies all pending deferred propagations now.
func (db *DB) FlushReplication() error { return db.e.FlushReplication() }

// PendingPropagations reports the number of queued deferred propagations.
func (db *DB) PendingPropagations() int { return db.e.PendingPropagations() }

// BuildIndex builds a B+tree index named name on set.expr, where expr is a
// base field ("salary") or a replicated path ("dept.org.name", which must be
// replicated in-place first). clustered records that the set file is
// physically ordered by this key.
func (db *DB) BuildIndex(name, set, expr string, clustered bool) error {
	return db.e.BuildIndex(name, set, expr, clustered)
}

func toEngineValues(vals V) map[string]schema.Value {
	out := make(map[string]schema.Value, len(vals))
	for k, v := range vals {
		out[k] = v.inner
	}
	return out
}

// Insert stores a new object and returns its OID. Unassigned fields hold
// zero values.
func (db *DB) Insert(set string, vals V) (OID, error) {
	oid, err := db.e.Insert(set, toEngineValues(vals))
	return OID{inner: oid}, err
}

// Get reads an object's visible fields.
func (db *DB) Get(set string, oid OID) (Record, error) {
	obj, err := db.e.Get(set, oid.inner)
	if err != nil {
		return Record{}, err
	}
	rec := Record{OID: oid, Fields: make(map[string]Value, len(obj.Values))}
	for i, f := range obj.Type.Fields {
		rec.Fields[f.Name] = Value{inner: obj.Values[i]}
	}
	return rec, nil
}

// Update assigns fields of the object at oid, propagating every replication
// structure and index.
func (db *DB) Update(set string, oid OID, vals V) error {
	return db.e.Update(set, oid.inner, toEngineValues(vals))
}

// Delete removes the object at oid. Deleting an object still referenced
// through a replication path fails.
func (db *DB) Delete(set string, oid OID) error {
	return db.e.Delete(set, oid.inner)
}

// Count returns the number of objects in a set.
func (db *DB) Count(set string) (int, error) { return db.e.Count(set) }

func toEnginePred(p *Pred) (*engine.Pred, error) {
	if p == nil {
		return nil, nil
	}
	out := &engine.Pred{Expr: p.Expr, Value: p.Value.inner, Value2: p.Value2.inner}
	switch p.Op {
	case EQ:
		out.Op = engine.OpEQ
	case LT:
		out.Op = engine.OpLT
	case LE:
		out.Op = engine.OpLE
	case GT:
		out.Op = engine.OpGT
	case GE:
		out.Op = engine.OpGE
	case Between:
		out.Op = engine.OpBetween
	default:
		return nil, fmt.Errorf("fieldrepl: unknown operator %d", p.Op)
	}
	return out, nil
}

// toEngineQuery converts a public query to the engine's representation.
func toEngineQuery(q Query) (engine.Query, error) {
	ep, err := toEnginePred(q.Where)
	if err != nil {
		return engine.Query{}, err
	}
	eq := engine.Query{
		Set: q.Set, Project: q.Project, Where: ep,
		EmitOutput: q.EmitOutput, ForceScan: q.ForceScan,
	}
	for i := range q.Filters {
		fp, err := toEnginePred(&q.Filters[i])
		if err != nil {
			return engine.Query{}, err
		}
		eq.Filters = append(eq.Filters, *fp)
	}
	return eq, nil
}

// fromEngineResult converts an engine result to the public representation:
// one allocation for the rows and one for all their values.
func fromEngineResult(res *engine.Result) *Result {
	out := &Result{UsedIndex: res.UsedIndex, OutputPages: int(res.OutputPages)}
	if len(res.Rows) == 0 {
		return out
	}
	n := 0
	for _, r := range res.Rows {
		n += len(r.Values)
	}
	vals := make([]Value, n)
	out.Rows = make([]Row, len(res.Rows))
	for i, r := range res.Rows {
		row := vals[:len(r.Values):len(r.Values)]
		vals = vals[len(r.Values):]
		for j, v := range r.Values {
			row[j] = Value{inner: v}
		}
		out.Rows[i] = Row{OID: OID{inner: r.OID}, Values: row}
	}
	return out
}

// Query executes a retrieve. Path expressions in projections and predicates
// use replicated data when a matching replication path exists and fall back
// to functional joins otherwise, so the same query works — at different I/O
// costs — with and without replication.
func (db *DB) Query(q Query) (*Result, error) {
	return db.QueryCtx(nil, q)
}

// QueryCtx is Query under a context: cancellation is checked at page
// boundaries during scans and index ranges (in every parallel scan worker),
// so a cancelled query stops fetching pages promptly and returns ctx.Err().
// A nil ctx behaves like Query.
//
// QueryCtx is the canonical form; Query is a thin wrapper over it. The
// result's Plan field carries the planner's rendered decision with this
// execution's observed page count.
func (db *DB) QueryCtx(ctx context.Context, q Query) (*Result, error) {
	eq, err := toEngineQuery(q)
	if err != nil {
		return nil, err
	}
	res, rec, err := db.e.Query(ctx, eq)
	if err != nil {
		return nil, err
	}
	out := fromEngineResult(res)
	if res.Decision != nil {
		out.Plan = res.Decision.RenderObserved(rec.IO())
	}
	return out, nil
}

// UpdateWhere applies vals to every object matching where, returning the
// number updated.
func (db *DB) UpdateWhere(set string, where Pred, vals V) (int, error) {
	return db.UpdateWhereCtx(nil, set, where, vals)
}

// UpdateWhereCtx is UpdateWhere under a context: cancellation is checked at
// page boundaries during collection and per object during the update pass. A
// cancelled operation rolls back entirely.
func (db *DB) UpdateWhereCtx(ctx context.Context, set string, where Pred, vals V) (int, error) {
	ep, err := toEnginePred(&where)
	if err != nil {
		return 0, err
	}
	n, _, err := db.e.UpdateWhere(ctx, set, *ep, toEngineValues(vals))
	return n, err
}

// Output is the result of executing one surface-language statement.
type Output struct {
	Message string
	Columns []string
	Rows    [][]string
	OID     OID
	// Plan carries the rendered planner decision: the chosen operator
	// pipeline and every costed alternative with its rejection reason. It is
	// set for "explain <stmt>" statements (an explained retrieve adds
	// predicted vs observed pages) and for plain retrieves. The network
	// server's Result.Plan carries it for explain statements only.
	Plan string
}

// Table renders a retrieve output as an aligned text table.
func (o Output) Table() string {
	eo := extra.Output{Message: o.Message, Columns: o.Columns, Rows: o.Rows}
	return eo.FormatTable()
}

// Exec runs a script in the EXTRA-style surface language ("define type ...",
// "create ...", "replicate ...", "build btree on ...", "insert ...",
// "retrieve ... where ...", "replace ...", "delete ...", "begin"/"commit"/
// "rollback"), returning one Output per statement. Variable bindings (let x
// = insert ...) persist across calls: Exec runs on the handle's default
// Session. Statements take only the locks their class needs — retrieve runs
// on the snapshot read path concurrent with writers, DML goes through the
// engine's per-set locks, and only schema statements serialize on the
// engine's exclusive lock. For concurrent scripting, give each goroutine its
// own NewSession (concurrent Exec calls on the handle share the default
// session's bindings and serialize per statement).
func (db *DB) Exec(script string) ([]Output, error) {
	return db.def.Exec(script)
}

// ExecCtx is Exec under a context: cancellation is checked between
// statements, at page boundaries inside queries, and in per-set lock waits. A
// nil ctx behaves like Exec.
func (db *DB) ExecCtx(ctx context.Context, script string) ([]Output, error) {
	return db.def.ExecCtx(ctx, script)
}

// ExecOne runs a single-statement script.
func (db *DB) ExecOne(stmt string) (Output, error) {
	return db.def.ExecOne(stmt)
}

// IO returns cumulative page-level I/O counters: only buffer-pool misses and
// write-backs are counted, the page transfers a disk-resident system would
// perform.
func (db *DB) IO() IOStats {
	st := db.e.IO()
	return IOStats{Reads: st.Reads, Writes: st.Writes}
}

// ColdCache flushes and empties the buffer pool so the next operation starts
// with a cold cache — the measurement discipline used by the experiments.
func (db *DB) ColdCache() error { return db.e.ColdCache() }

// FlushAll writes back all dirty buffered pages.
func (db *DB) FlushAll() error { return db.e.FlushAll() }

// NumPages returns the page count of a set's file.
func (db *DB) NumPages(set string) (int, error) {
	n, err := db.e.NumPages(set)
	return int(n), err
}

// VerifyReplication checks the global replication invariant — every
// replicated value equals the value reachable through its forward path, link
// structures are exact, and S′ refcounts match — returning all violations.
func (db *DB) VerifyReplication() []error { return db.e.VerifyReplication() }

// Sync makes the current state durable: dirty buffered pages are written
// back, the store is fsynced, and (for file-backed databases) the catalog
// snapshot is rewritten. After Sync returns, a crash loses nothing.
func (db *DB) Sync() error { return db.e.Sync() }

// RepairReport is what a Repair pass found and what it left: the
// VerifyReplication findings before the repair and after it.
type RepairReport struct {
	Found     []error // violations present before the repair
	Remaining []error // violations still present after it
}

// Clean reports whether the post-repair verification found no violations.
func (r RepairReport) Clean() bool { return len(r.Remaining) == 0 }

// Repair re-derives every live path's replicated state — hidden values, link
// structures, collapsed link objects, S′ groups — from the primary objects,
// in three steps: one scan of the sets strips all of it, without reading a
// link or S′ object; every link and S′ group gets a fresh page file, the old
// ones abandoned whole; and every path is built again. It is the recovery
// path for damage no log covers, media corruption of a derived page in a
// link or S′ file. Failed or crashed operations never need it: statements
// roll back, and a schema operation that does not finish is torn down. A
// Repair that fails or crashes partway resumes by itself, at the next schema
// operation or Open; until then no query answers through a replicated path
// or a path index. A resume that fails again — on a damaged page of a set's
// own file — does not stop Open, but Repair and every other schema
// operation return its error until one finishes.
func (db *DB) Repair() (RepairReport, error) {
	rep, err := db.e.Repair()
	if rep == nil {
		return RepairReport{}, err
	}
	return RepairReport{Found: rep.Found, Remaining: rep.Remaining}, err
}

// Unreplicate removes a replication path declared with Replicate, tearing
// down its hidden values and any link/S′ structures not shared with other
// paths. An index built on the path must be dropped first.
func (db *DB) Unreplicate(path string, strategy Strategy) error {
	return db.e.Unreplicate(path, catalog.Strategy(strategy))
}

// DropIndex removes an index built with BuildIndex.
func (db *DB) DropIndex(name string) error { return db.e.DropIndex(name) }

// SetStats describes the physical state of a set's file.
type SetStats struct {
	Pages       int
	Live        int     // live objects
	Forwarded   int     // objects whose record moved behind a forwarding stub
	DeadSlots   int     // free slot-directory entries
	PayloadSize int64   // total live record bytes
	FreeBytes   int64   // reclaimable bytes
	AvgPayload  float64 // mean live record size
}

// Stats reports the physical statistics of a set's file: useful for judging
// replication's space effects (in-place replication widens source objects
// and may forward records that grew after a path was added).
func (db *DB) Stats(set string) (SetStats, error) {
	st, err := db.e.SetStats(set)
	if err != nil {
		return SetStats{}, err
	}
	return SetStats{
		Pages: int(st.Pages), Live: st.Live, Forwarded: st.Forwarded,
		DeadSlots: st.DeadSlots, PayloadSize: st.PayloadSize,
		FreeBytes: st.FreeBytes, AvgPayload: st.AvgPayload(),
	}, nil
}
