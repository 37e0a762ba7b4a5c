package engine

import (
	"time"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/costmodel"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/plan"
	"github.com/exodb/fieldrepl/internal/schema"
	"github.com/exodb/fieldrepl/internal/wal"
)

// Explain pairs a query's observed per-trace I/O with the Section-6 cost
// model's prediction for the same query shape — the repro's live self-check:
// when attribution is correct, observed pages track the analytical model.
type Explain struct {
	// Trace is the query's completed trace record (plan, counters, timing).
	Trace obs.Record `json:"trace"`
	// ObservedPages is the store page I/O the query actually performed
	// (reads + writes from its own trace, unaffected by concurrent work).
	ObservedPages int64 `json:"observed_pages"`
	// Strategy and Setting are the cost-model coordinates derived from the
	// catalog (replication strategy of the resolved path, clustering of the
	// chosen index).
	Strategy string `json:"strategy"`
	Setting  string `json:"setting"`
	// PredictedPages is the model's page count for this shape; HasPrediction
	// is false when no Params were supplied.
	PredictedPages float64 `json:"predicted_pages,omitempty"`
	HasPrediction  bool    `json:"has_prediction"`
	// DeltaPct is 100*(observed-predicted)/predicted when a prediction exists.
	DeltaPct float64 `json:"delta_pct,omitempty"`
	// Observed wall-time breakdown (nanoseconds), next to the page-count
	// prediction: total wall clock, then where it went — writer-lock wait,
	// WAL durability wait, store read stalls, dirty write-back stalls. The
	// remainder is compute (predicate evaluation, decoding, in-buffer work).
	WallNs       int64 `json:"wall_ns"`
	LockWaitNs   int64 `json:"lock_wait_ns,omitempty"`
	LogWaitNs    int64 `json:"log_wait_ns,omitempty"`
	ReadStallNs  int64 `json:"read_stall_ns,omitempty"`
	WriteStallNs int64 `json:"write_stall_ns,omitempty"`
	// Plan is the cost-based planner's rendered decision — the chosen
	// operator pipeline, every costed alternative with its rejection reason,
	// and the planner's page prediction paired with the observed trace pages.
	// Decision is the same record structured for programmatic use.
	Plan     string         `json:"plan,omitempty"`
	Decision *plan.Decision `json:"decision,omitempty"`
}

// ExplainQuery executes q like Query and returns, alongside the result, the
// observed-vs-predicted comparison. params supplies the cost-model constants
// (typically costmodel.Default() adjusted to the experiment); nil skips the
// prediction and reports only the observed trace.
func (db *DB) ExplainQuery(q Query, params *costmodel.Params) (*Result, *Explain, error) {
	res, rec, err := db.QueryTraced(q)
	if err != nil {
		return nil, nil, err
	}
	exprs := append([]string(nil), q.Project...)
	if q.Where != nil {
		exprs = append(exprs, q.Where.Expr)
	}
	for _, f := range q.Filters {
		exprs = append(exprs, f.Expr)
	}
	ex := db.explain(rec, costmodel.ReadQuery, db.readStrategy(q.Set, exprs), db.indexSetting(q.Set, res.UsedIndex), params)
	if res.Decision != nil {
		ex.Decision = res.Decision
		ex.Plan = res.Decision.RenderObserved(rec.IO())
	}
	return res, ex, nil
}

// ExplainUpdateWhere executes an update query like UpdateWhere and returns
// the observed-vs-predicted comparison. The strategy is that of the
// replication path terminating at the updated set (the propagation the
// update pays for); NoReplication when no path targets it.
func (db *DB) ExplainUpdateWhere(set string, where Pred, vals map[string]schema.Value, params *costmodel.Params) (int, *Explain, error) {
	n, rec, d, err := db.updateWhereDecided(nil, set, where, vals)
	if err != nil {
		return 0, nil, err
	}
	db.mu.RLock()
	st := db.updateStrategy(set)
	setting := db.indexSettingLocked(set, "", &where)
	db.mu.RUnlock()
	ex := db.explain(rec, costmodel.UpdateQuery, st, setting, params)
	if d != nil {
		ex.Decision = d
		ex.Plan = d.RenderObserved(rec.IO())
	}
	return n, ex, nil
}

// explain assembles the comparison record.
func (db *DB) explain(rec obs.Record, kind costmodel.QueryKind, st costmodel.Strategy, setting costmodel.Setting, params *costmodel.Params) *Explain {
	ex := &Explain{
		Trace:         rec,
		ObservedPages: rec.IO(),
		Strategy:      st.String(),
		Setting:       setting.String(),
		WallNs:        int64(rec.Wall),
		LockWaitNs:    rec.LockWaitNs,
		LogWaitNs:     rec.LogWaitNs,
		ReadStallNs:   rec.ReadStallNs,
		WriteStallNs:  rec.WriteStallNs,
	}
	if params != nil {
		ex.PredictedPages = params.PredictPages(costmodel.QueryShape{Kind: kind, Strategy: st, Setting: setting})
		ex.HasPrediction = true
		if ex.PredictedPages > 0 {
			ex.DeltaPct = 100 * (float64(ex.ObservedPages) - ex.PredictedPages) / ex.PredictedPages
		}
	}
	return ex
}

// readStrategy maps a read query's path expressions to the replication
// strategy its executor resolves them through: in-place or separate when an
// exactly matching path exists, no-replication (functional join) otherwise.
func (db *DB) readStrategy(set string, exprs []string) costmodel.Strategy {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, expr := range exprs {
		refs, field := splitExpr(expr)
		if len(refs) == 0 {
			continue
		}
		spec := catalog.PathSpec{Source: set, Refs: refs, Field: field}
		if _, ok := db.cat.FindPath(spec, catalog.InPlace); ok {
			return costmodel.InPlace
		}
		if _, ok := db.cat.FindPath(spec, catalog.Separate); ok {
			return costmodel.Separate
		}
	}
	return costmodel.NoReplication
}

// updateStrategy returns the strategy of the replication path whose terminal
// type is the updated set's type — the propagation the update triggers.
// Callers hold db.mu.
func (db *DB) updateStrategy(set string) costmodel.Strategy {
	typ, err := db.cat.SetType(set)
	if err != nil {
		return costmodel.NoReplication
	}
	for _, p := range db.cat.Paths() {
		if p.TerminalType().Name != typ.Name {
			continue
		}
		if p.Strategy == catalog.Separate {
			return costmodel.Separate
		}
		return costmodel.InPlace
	}
	return costmodel.NoReplication
}

// indexSetting reports whether the access path the query used is clustered.
func (db *DB) indexSetting(set, usedIndex string) costmodel.Setting {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.indexSettingLocked(set, usedIndex, nil)
}

// indexSettingLocked resolves the index either by the executor's recorded
// choice (usedIndex) or, for update paths that don't report one, by the
// predicate the planner would match. Callers hold db.mu.
func (db *DB) indexSettingLocked(set, usedIndex string, where *Pred) costmodel.Setting {
	if usedIndex == "" && where != nil {
		refs, field := splitExpr(where.Expr)
		var ix *catalog.Index
		var ok bool
		if len(refs) == 0 {
			ix, ok = db.cat.IndexFor(set, field)
		} else {
			ix, ok = db.cat.PathIndexFor(set, refs, field)
		}
		if ok {
			usedIndex = ix.Name
		}
	}
	if usedIndex != "" {
		for _, ix := range db.cat.IndexesOn(set) {
			if ix.Name == usedIndex && ix.Clustered {
				return costmodel.Clustered
			}
		}
	}
	return costmodel.Unclustered
}

// Metrics is the pull-based observability snapshot: process-total I/O and
// pool counters, WAL activity, trace aggregates, latency and contention
// digests, and the recently completed trace records.
type Metrics struct {
	IO   IOStats          `json:"io"`
	Pool buffer.PoolStats `json:"pool"`
	// WAL is nil — rendered as an explicit JSON null — when the database runs
	// without a write-ahead log (in-memory), so consumers can
	// tell "no WAL" from "WAL with zero activity".
	WAL    *wal.Stats  `json:"wal"`
	Traces obs.Metrics `json:"traces"`
	// Latency digests the wall-time histograms: per operation kind under the
	// kind name ("query"), per (kind, set) under "kind|set" ("query|Emp1").
	Latency map[string]obs.HistSummary `json:"latency"`
	// Contention digests the wait/stall histograms: "lock_wait" (writer-lock
	// acquisition), "wal_fsync_wait" (group-commit durability rendezvous;
	// present only with a WAL), "pool_read_stall" and "pool_write_stall"
	// (buffer-pool store I/O).
	Contention map[string]obs.HistSummary `json:"contention"`
	Recent     []obs.Record               `json:"recent"`
}

// Metrics returns the observability snapshot. It takes no engine lock: every
// source is an internally consistent concurrent snapshot, so Metrics is safe
// to call from anywhere — including a slow-query sink — without deadlock.
func (db *DB) Metrics() Metrics {
	m := Metrics{
		IO:         db.IO(),
		Pool:       db.pool.Stats(),
		Traces:     db.obs.Metrics(),
		Latency:    db.obs.LatencySummaries(),
		Contention: db.contentionSummaries(),
		Recent:     db.obs.Recent(),
	}
	if db.wal != nil {
		st := db.wal.Stats()
		m.WAL = &st
	}
	return m
}

// contentionSummaries digests the engine's contention histograms for the
// Metrics snapshot and /debug/vars.
func (db *DB) contentionSummaries() map[string]obs.HistSummary {
	read, write := db.pool.StallHists()
	out := map[string]obs.HistSummary{
		"lock_wait":        db.lockWait.Snapshot().Summary(),
		"pool_read_stall":  read.Summary(),
		"pool_write_stall": write.Summary(),
	}
	// Per-set lock waits ("set_lock_wait|<set>"), present once contended.
	for k, v := range db.setLocks.waitSummaries() {
		out[k] = v
	}
	if db.wal != nil {
		out["wal_fsync_wait"] = db.wal.FsyncWaitHist().Summary()
	}
	return out
}

// RecentTraces returns the most recently completed trace records, oldest
// first.
func (db *DB) RecentTraces() []obs.Record {
	return db.obs.Recent()
}

// SetSlowQueryLog enables slow-operation logging: every traced operation
// whose wall time reaches threshold is passed to sink after it finishes. A
// zero threshold or nil sink disables it. The sink runs outside engine locks
// and must be safe for concurrent use.
func (db *DB) SetSlowQueryLog(threshold time.Duration, sink func(obs.Record)) {
	db.obs.SetSlowQuery(threshold, sink)
}

// FlushAllTraced writes back all dirty buffered pages like FlushAll and
// returns the flush's own trace record, so measurement code can account the
// write-backs a query left dirty to that query's workload without a global
// counter delta. It runs under the shared lock: the flush skips pages
// captured by in-flight writers (their write-back is gated on commit
// anyway), so it never blocks behind — or publishes partial state of — a
// concurrent transaction.
func (db *DB) FlushAllTraced() (obs.Record, error) {
	tr := db.obs.Start(obs.KindFlush, "", "")
	db.mu.RLock()
	err := db.pool.FlushAllT(tr)
	db.mu.RUnlock()
	rec := db.obs.Finish(tr)
	return rec, err
}
