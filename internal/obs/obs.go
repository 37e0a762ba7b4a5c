// Package obs is the observability layer: per-operation I/O traces that fix
// the attribution problem global counters have under concurrency.
//
// The store's pagefile.Stats and the buffer pool's counters are process
// totals. When two queries overlap, the Reset/read-delta pattern charges each
// query with the other's pages, so "pages per query" — the quantity the
// paper's Section 6 cost model predicts — becomes unmeasurable. A Trace is a
// handle-carried accumulator: the engine creates one per query/DML operation,
// binds it to the heap files and B+trees the operation touches, and the
// buffer pool charges every hit, miss, and write-back to the trace
// alongside the global counters. Parallel scan workers share the owning
// operation's trace (the counters are atomic), so a trace is exact under any
// interleaving: its counters depend only on the operation's own page
// accesses, never on what ran concurrently.
//
// The counter hierarchy is: per-trace counters (this package) at the bottom,
// pool counters (buffer.PoolStats) and store counters (pagefile.Stats) as
// process totals above. Every traced charge is also a global charge, so over
// a window with no untraced activity, Σ(per-trace) == global delta.
//
// All Trace methods are safe on a nil receiver (they do nothing), so the
// storage layers take a *Trace unconditionally and untraced callers pass nil
// at zero cost.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace kinds used by the engine.
const (
	KindQuery  = "query"
	KindUpdate = "update-where"
	KindDML    = "dml"
	KindFlush  = "flush"
	KindTxn    = "txn"
)

// Counters is one trace's I/O counter set. Store* count page transfers to or
// from the page store (the cost model's I/O); Hits/Misses/Flushes count
// buffer pool events. Hits+Misses is the operation's logical page
// accesses — deterministic for a given plan regardless of cache warmth,
// which is what makes per-trace counts comparable across runs.
type Counters struct {
	StoreReads  int64 `json:"store_reads"`
	StoreWrites int64 `json:"store_writes"`
	StoreAllocs int64 `json:"store_allocs"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Flushes     int64 `json:"flushes"`
	// WALRecords/WALBytes count write-ahead-log records (page images and
	// deltas, commit markers, catalog snapshots) and log bytes the operation appended; zero
	// for reads and for databases running without a WAL.
	WALRecords int64 `json:"wal_records,omitempty"`
	WALBytes   int64 `json:"wal_bytes,omitempty"`
	// LockConflicts counts per-set write locks the operation found held by
	// another writer and had to wait for (fine-grained DML); zero for reads,
	// uncontended writes, and coarse-mode operations.
	LockConflicts int64 `json:"lock_conflicts,omitempty"`
}

// PageAccesses returns hits + misses: the number of buffer pool page
// requests the operation made.
func (c Counters) PageAccesses() int64 { return c.Hits + c.Misses }

// IO returns store reads + writes, the page transfers the cost model counts.
func (c Counters) IO() int64 { return c.StoreReads + c.StoreWrites }

// Add returns c + d.
func (c Counters) Add(d Counters) Counters {
	return Counters{
		StoreReads:    c.StoreReads + d.StoreReads,
		StoreWrites:   c.StoreWrites + d.StoreWrites,
		StoreAllocs:   c.StoreAllocs + d.StoreAllocs,
		Hits:          c.Hits + d.Hits,
		Misses:        c.Misses + d.Misses,
		Flushes:       c.Flushes + d.Flushes,
		WALRecords:    c.WALRecords + d.WALRecords,
		WALBytes:      c.WALBytes + d.WALBytes,
		LockConflicts: c.LockConflicts + d.LockConflicts,
	}
}

// Trace accumulates the I/O of one operation. It is created by a Registry,
// carried by handle through the storage layers, and closed with
// Registry.Finish. All methods are safe for concurrent use and on a nil
// receiver.
type Trace struct {
	id     uint64
	kind   string
	set    string
	detail string
	start  time.Time
	plan   atomic.Pointer[string]
	origin atomic.Pointer[string]
	// paths/fields carry the operation's replication-relevant metadata: the
	// dotted path expressions a query resolved (or an update propagated
	// through) and the field names an update wrote. Stamped once by the
	// engine at plan time; pointers so the stores are atomic and nil-safe.
	paths     atomic.Pointer[[]string]
	fields    atomic.Pointer[[]string]
	rows      atomic.Int64
	predicted atomic.Uint64 // math.Float64bits of the planner's page prediction

	storeReads    atomic.Int64
	storeWrites   atomic.Int64
	storeAllocs   atomic.Int64
	hits          atomic.Int64
	misses        atomic.Int64
	flushes       atomic.Int64
	walRecords    atomic.Int64
	walBytes      atomic.Int64
	lockConflicts atomic.Int64

	// Wall-time decomposition: time the operation spent waiting for its
	// per-set write locks, for the WAL durability rendezvous (fsync wait),
	// and stalled on store page reads / dirty write-backs. Charged by the
	// engine, the WAL call sites, and the buffer pool alongside the matching
	// global contention histograms.
	setLockWaitNs atomic.Int64
	logWaitNs     atomic.Int64
	readStallNs   atomic.Int64
	writeStallNs  atomic.Int64
}

// ID returns the trace's registry-unique id (0 for a nil trace).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// StoreRead charges n page reads from the store.
func (t *Trace) StoreRead(n int64) {
	if t != nil {
		t.storeReads.Add(n)
	}
}

// StoreWrite charges n page writes to the store.
func (t *Trace) StoreWrite(n int64) {
	if t != nil {
		t.storeWrites.Add(n)
	}
}

// StoreAlloc charges n page allocations.
func (t *Trace) StoreAlloc(n int64) {
	if t != nil {
		t.storeAllocs.Add(n)
	}
}

// Hit charges n buffer pool hits.
func (t *Trace) Hit(n int64) {
	if t != nil {
		t.hits.Add(n)
	}
}

// Miss charges n buffer pool misses.
func (t *Trace) Miss(n int64) {
	if t != nil {
		t.misses.Add(n)
	}
}

// Flush charges n dirty-page write-backs performed by (or on behalf of) the
// traced operation — evictions its accesses forced, or an explicit flush.
func (t *Trace) Flush(n int64) {
	if t != nil {
		t.flushes.Add(n)
	}
}

// WAL charges n log records and b log bytes appended on the trace's behalf.
func (t *Trace) WAL(n, b int64) {
	if t != nil {
		t.walRecords.Add(n)
		t.walBytes.Add(b)
	}
}

// LockConflict charges n per-set lock conflicts: acquisitions that found the
// lock held by another writer.
func (t *Trace) LockConflict(n int64) {
	if t != nil {
		t.lockConflicts.Add(n)
	}
}

// LockWait charges time spent waiting to acquire a per-set write lock.
func (t *Trace) LockWait(d time.Duration) {
	if t != nil && d > 0 {
		t.setLockWaitNs.Add(int64(d))
	}
}

// LogWait charges time spent in the WAL durability wait (group-commit
// rendezvous: interval sleep + leader/follower fsync wait).
func (t *Trace) LogWait(d time.Duration) {
	if t != nil && d > 0 {
		t.logWaitNs.Add(int64(d))
	}
}

// ReadStall charges time stalled on store page reads (buffer misses)
// performed on the trace's behalf.
func (t *Trace) ReadStall(d time.Duration) {
	if t != nil && d > 0 {
		t.readStallNs.Add(int64(d))
	}
}

// WriteStall charges time stalled on dirty-page write-backs (evictions the
// operation forced, explicit flushes) performed on the trace's behalf.
func (t *Trace) WriteStall(d time.Duration) {
	if t != nil && d > 0 {
		t.writeStallNs.Add(int64(d))
	}
}

// SetPlan records the executor's plan choice ("scan", "scan-parallel",
// "index:<name>"). The last call wins.
func (t *Trace) SetPlan(plan string) {
	if t != nil {
		t.plan.Store(&plan)
	}
}

// SetOrigin labels the trace with the session (or other caller identity) the
// operation ran on behalf of. Empty origins are ignored; the last call wins.
func (t *Trace) SetOrigin(origin string) {
	if t != nil && origin != "" {
		t.origin.Store(&origin)
	}
}

// SetPredictedPages records the planner's page-access prediction for the
// operation, pairing it with the observed Hits+Misses on the finished record.
func (t *Trace) SetPredictedPages(pages float64) {
	if t != nil && pages > 0 {
		t.predicted.Store(math.Float64bits(pages))
	}
}

// SetPaths records the replicated-path keys (PathSpec dotted form) the
// operation read through or propagated updates into. The slice must not be
// mutated after the call; the last call wins.
func (t *Trace) SetPaths(paths []string) {
	if t != nil && len(paths) > 0 {
		t.paths.Store(&paths)
	}
}

// SetFields records the field names an update wrote. The slice must not be
// mutated after the call; the last call wins.
func (t *Trace) SetFields(fields []string) {
	if t != nil && len(fields) > 0 {
		t.fields.Store(&fields)
	}
}

// SetRows records how many objects the operation returned (queries) or
// modified (updates). The last call wins.
func (t *Trace) SetRows(n int64) {
	if t != nil {
		t.rows.Store(n)
	}
}

// Counters returns a snapshot of the trace's counters.
func (t *Trace) Counters() Counters {
	if t == nil {
		return Counters{}
	}
	return Counters{
		StoreReads:    t.storeReads.Load(),
		StoreWrites:   t.storeWrites.Load(),
		StoreAllocs:   t.storeAllocs.Load(),
		Hits:          t.hits.Load(),
		Misses:        t.misses.Load(),
		Flushes:       t.flushes.Load(),
		WALRecords:    t.walRecords.Load(),
		WALBytes:      t.walBytes.Load(),
		LockConflicts: t.lockConflicts.Load(),
	}
}

// Record is a completed trace: identity, timing, and the page counters the
// operation itself accumulated. It is the unit the metrics snapshot, the
// slow-query log, and extradb -explain report, and the public package's
// TraceRecord. Unlike the store-wide I/O counters, a record is exact under
// concurrency: it counts only the pages the traced operation touched.
type Record struct {
	// ID is the process-unique trace id. Ids are issued at start, so
	// overlapping operations may complete out of id order.
	ID uint64 `json:"id"`
	// Kind is the operation class: "query", "update-where", "dml", "flush",
	// "txn".
	Kind string `json:"kind"`
	// Set is the target set, Detail the predicate expression or DML verb.
	Set    string `json:"set,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Plan is the executor's access-path choice: "scan", "scan-parallel", or
	// "index:<name>".
	Plan string `json:"plan,omitempty"`
	// Origin attributes the operation to the session that ran it ("sess-N"
	// for Session and network-server statements), empty for direct API calls.
	Origin string    `json:"origin,omitempty"`
	Start  time.Time `json:"start"`
	// Wall is the operation's wall-clock duration (JSON: nanoseconds).
	Wall time.Duration `json:"wall_ns"`
	Counters
	// Bytes is the store traffic in bytes: (reads + writes) * page size.
	Bytes int64 `json:"bytes"`
	// Wall-time decomposition (nanoseconds): per-set lock wait, WAL
	// durability wait, store read stalls, and dirty write-back stalls. The
	// remainder of Wall is compute (predicate evaluation, decoding,
	// in-buffer work). Zero fields are elided from JSON.
	LockWaitNs   int64 `json:"lock_wait_ns,omitempty"`
	LogWaitNs    int64 `json:"log_wait_ns,omitempty"`
	ReadStallNs  int64 `json:"read_stall_ns,omitempty"`
	WriteStallNs int64 `json:"write_stall_ns,omitempty"`
	// PredictedPages is the planner's Section-6 page-access prediction for the
	// operation, paired with the observed PageAccesses (hits+misses); zero when
	// the operation was not planned (flushes, transactions).
	PredictedPages float64 `json:"predicted_pages,omitempty"`
	// Paths lists the replicated-path keys (dotted PathSpec form) the
	// operation read through or propagated updates into; Fields lists the
	// field names an update wrote; Rows is the result/match count. Stamped by
	// the engine for the advisor's workload aggregation.
	Paths  []string `json:"paths,omitempty"`
	Fields []string `json:"fields,omitempty"`
	Rows   int64    `json:"rows,omitempty"`
}

func (r Record) String() string {
	return fmt.Sprintf("#%d %s set=%s plan=%s wall=%v reads=%d writes=%d hits=%d misses=%d",
		r.ID, r.Kind, r.Set, r.Plan, r.Wall, r.StoreReads, r.StoreWrites, r.Hits, r.Misses)
}

// Metrics is the registry's aggregate snapshot.
type Metrics struct {
	Active    int      `json:"active"`
	Completed int64    `json:"completed"`
	Slow      int64    `json:"slow"`
	Totals    Counters `json:"totals"`
}

// Registry issues traces, tracks the active set, keeps a bounded ring of
// recently completed records, aggregates totals over all completed traces,
// and maintains latency histograms per operation kind and per (kind, set).
// All methods are safe for concurrent use.
type Registry struct {
	pageSize int64
	nextID   atomic.Uint64

	mu        sync.Mutex
	active    map[uint64]*Trace
	recent    []Record
	recentCap int
	completed int64
	slowCount int64
	totals    Counters

	slowAt   time.Duration
	slowSink func(Record)

	// subs is the completed-trace subscriber list (the advisor's feed).
	// Copy-on-write under mu so Finish's steady-state cost when nobody is
	// subscribed is a single atomic load.
	subs atomic.Pointer[[]*subscriber]

	// latKind maps kind -> *Histogram; latKindSet maps kind+"\x00"+set ->
	// *setHist. Histograms are created on first finish of a key and then
	// updated lock-free; Finish's lookup is a sync.Map Load on the steady
	// path.
	latKind    sync.Map
	latKindSet sync.Map

	// now is the registry's clock, replaceable by tests to pin wall times
	// (e.g. the Wall == threshold slow-query boundary).
	now func() time.Time
}

// setHist is one (kind, set) latency series.
type setHist struct {
	kind, set string
	h         *Histogram
}

// DefaultRecentCap bounds the recently-completed ring.
const DefaultRecentCap = 64

// NewRegistry returns a registry. pageSize converts page counts to bytes in
// completed records.
func NewRegistry(pageSize int) *Registry {
	return &Registry{
		pageSize:  int64(pageSize),
		active:    map[uint64]*Trace{},
		recentCap: DefaultRecentCap,
		now:       time.Now,
	}
}

// Start opens a trace and registers it as active.
func (r *Registry) Start(kind, set, detail string) *Trace {
	t := &Trace{
		id:     r.nextID.Add(1),
		kind:   kind,
		set:    set,
		detail: detail,
		start:  r.now(),
	}
	r.mu.Lock()
	r.active[t.id] = t
	r.mu.Unlock()
	return t
}

// Finish closes a trace: it is removed from the active set, its record is
// appended to the recent ring and folded into the aggregate totals, its wall
// time is observed on the kind and (kind, set) latency histograms, and —
// when a slow-query sink is configured and the trace's wall time reaches the
// threshold (Wall >= threshold, boundary inclusive) — the sink is invoked
// (outside the registry lock). Finishing a nil trace returns a zero Record.
func (r *Registry) Finish(t *Trace) Record {
	if t == nil {
		return Record{}
	}
	c := t.Counters()
	rec := Record{
		ID:           t.id,
		Kind:         t.kind,
		Set:          t.set,
		Detail:       t.detail,
		Start:        t.start,
		Wall:         r.now().Sub(t.start),
		Counters:     c,
		Bytes:        c.IO() * r.pageSize,
		LockWaitNs:   t.setLockWaitNs.Load(),
		LogWaitNs:    t.logWaitNs.Load(),
		ReadStallNs:  t.readStallNs.Load(),
		WriteStallNs: t.writeStallNs.Load(),
	}
	if p := t.plan.Load(); p != nil {
		rec.Plan = *p
	}
	if o := t.origin.Load(); o != nil {
		rec.Origin = *o
	}
	if bits := t.predicted.Load(); bits != 0 {
		rec.PredictedPages = math.Float64frombits(bits)
	}
	if ps := t.paths.Load(); ps != nil {
		rec.Paths = *ps
	}
	if fs := t.fields.Load(); fs != nil {
		rec.Fields = *fs
	}
	rec.Rows = t.rows.Load()
	r.observeLatency(rec.Kind, rec.Set, rec.Wall)
	r.mu.Lock()
	delete(r.active, t.id)
	r.completed++
	r.totals = r.totals.Add(c)
	if len(r.recent) < r.recentCap {
		r.recent = append(r.recent, rec)
	} else {
		copy(r.recent, r.recent[1:])
		r.recent[len(r.recent)-1] = rec
	}
	sink := r.slowSink
	slow := r.slowAt > 0 && sink != nil && rec.Wall >= r.slowAt
	if slow {
		r.slowCount++
	}
	r.mu.Unlock()
	if slow {
		sink(rec)
	}
	// Subscribers run outside the registry lock, like the slow sink, so a
	// subscriber may re-enter registry accessors without deadlock.
	if subs := r.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.fn(rec)
		}
	}
	return rec
}

// subscriber wraps a completed-trace callback so Subscribe can hand back a
// cancel func that removes exactly this registration.
type subscriber struct{ fn func(Record) }

// Subscribe registers fn to be invoked with every completed trace record,
// after the record is folded into the registry (outside the registry lock).
// fn must be safe for concurrent invocation — overlapping operations finish
// concurrently. The returned cancel removes the registration; it is
// idempotent. An operation finishing concurrently with cancel may still
// invoke fn once.
func (r *Registry) Subscribe(fn func(Record)) (cancel func()) {
	s := &subscriber{fn: fn}
	r.mu.Lock()
	var next []*subscriber
	if cur := r.subs.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, s)
	r.subs.Store(&next)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		cur := r.subs.Load()
		if cur == nil {
			return
		}
		var next []*subscriber
		for _, e := range *cur {
			if e != s {
				next = append(next, e)
			}
		}
		if len(next) == 0 {
			r.subs.Store(nil)
		} else {
			r.subs.Store(&next)
		}
	}
}

// SetSlowQuery configures slow-operation logging: every trace finishing with
// wall time >= threshold is passed to sink. A zero threshold or nil sink
// disables it.
func (r *Registry) SetSlowQuery(threshold time.Duration, sink func(Record)) {
	r.mu.Lock()
	r.slowAt = threshold
	r.slowSink = sink
	r.mu.Unlock()
}

// observeLatency records one finished operation's wall time on the kind
// histogram and, for set-bound operations, the (kind, set) histogram.
// Steady-state cost is two sync.Map loads and two lock-free Observes; the
// histograms themselves are allocated once per distinct key.
func (r *Registry) observeLatency(kind, set string, wall time.Duration) {
	h, ok := r.latKind.Load(kind)
	if !ok {
		h, _ = r.latKind.LoadOrStore(kind, NewHistogram())
	}
	h.(*Histogram).Observe(wall)
	if set == "" {
		return
	}
	key := kind + "\x00" + set
	sh, ok := r.latKindSet.Load(key)
	if !ok {
		sh, _ = r.latKindSet.LoadOrStore(key, &setHist{kind: kind, set: set, h: NewHistogram()})
	}
	sh.(*setHist).h.Observe(wall)
}

// LatencyByKind returns a snapshot of the per-kind latency histograms.
func (r *Registry) LatencyByKind() map[string]HistSnapshot {
	out := map[string]HistSnapshot{}
	r.latKind.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	return out
}

// KindSetLatency is one (kind, set) latency series snapshot.
type KindSetLatency struct {
	Kind, Set string
	Snap      HistSnapshot
}

// LatencyByKindSet returns snapshots of the per-(kind, set) latency
// histograms, sorted by kind then set for deterministic exposition.
func (r *Registry) LatencyByKindSet() []KindSetLatency {
	var out []KindSetLatency
	r.latKindSet.Range(func(_, v any) bool {
		sh := v.(*setHist)
		out = append(out, KindSetLatency{Kind: sh.kind, Set: sh.set, Snap: sh.h.Snapshot()})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Set < out[j].Set
	})
	return out
}

// LatencySummaries digests every latency histogram — kinds under their own
// name, (kind, set) series under "kind|set" — for JSON snapshots.
func (r *Registry) LatencySummaries() map[string]HistSummary {
	out := map[string]HistSummary{}
	for k, s := range r.LatencyByKind() {
		out[k] = s.Summary()
	}
	for _, ks := range r.LatencyByKindSet() {
		out[ks.Kind+"|"+ks.Set] = ks.Snap.Summary()
	}
	return out
}

// Recent returns the most recently completed records in completion order,
// oldest completion first. Because ids are issued at Start, overlapping
// operations may appear with non-monotonic ids; the ring order — append at
// Finish under the registry lock — is the stable, documented order that
// /debug/traces and extradb -explain rely on.
func (r *Registry) Recent() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, len(r.recent))
	copy(out, r.recent)
	return out
}

// Metrics returns the aggregate snapshot.
func (r *Registry) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Metrics{
		Active:    len(r.active),
		Completed: r.completed,
		Slow:      r.slowCount,
		Totals:    r.totals,
	}
}
