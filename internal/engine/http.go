package engine

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"github.com/exodb/fieldrepl/internal/obs"
)

// MetricsHandler returns the engine's observability HTTP handler, stdlib
// only, mounted on a private mux (nothing touches http.DefaultServeMux):
//
//	/metrics        Prometheus text exposition (version 0.0.4)
//	/advisor        the workload advisor's report as JSON (DB.Advise)
//	/debug/vars     the Metrics snapshot as JSON (expvar-style)
//	/debug/traces   the recent-trace ring as NDJSON, completion order
//	/debug/pprof/   the standard runtime profiles (CPU, heap, goroutine, ...)
//
// Every endpoint reads lock-free snapshots (the advisor report additionally
// takes the shared engine lock to read the catalog), so scraping never
// contends with queries. Series names and labels are documented in
// docs/observability.md.
func (db *DB) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", db.handleProm)
	mux.HandleFunc("/advisor", db.handleAdvisor)
	mux.HandleFunc("/debug/vars", db.handleVars)
	mux.HandleFunc("/debug/traces", db.handleTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (db *DB) handleProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	io := db.IO()
	obs.PromCounter(w, "fieldrepl_store_reads_total", "Pages read from the page store.", io.Reads)
	obs.PromCounter(w, "fieldrepl_store_writes_total", "Pages written to the page store.", io.Writes)
	obs.PromCounter(w, "fieldrepl_store_allocs_total", "Pages allocated in the page store.", io.Allocs)

	pool := db.pool.Stats()
	obs.PromCounter(w, "fieldrepl_pool_hits_total", "Buffer pool hits.", pool.Hits)
	obs.PromCounter(w, "fieldrepl_pool_misses_total", "Buffer pool misses.", pool.Misses)
	obs.PromCounter(w, "fieldrepl_pool_evictions_total", "Buffer pool frame evictions.", pool.Evictions)
	obs.PromCounter(w, "fieldrepl_pool_flushes_total", "Dirty pages written back by the pool.", pool.Flushes)

	tm := db.obs.Metrics()
	obs.PromGauge(w, "fieldrepl_ops_active", "Traced operations currently running.", float64(tm.Active))
	obs.PromCounter(w, "fieldrepl_ops_completed_total", "Traced operations completed.", tm.Completed)
	obs.PromCounter(w, "fieldrepl_ops_slow_total", "Operations at or over the slow-query threshold.", tm.Slow)

	// Per-kind operation latency; the finer per-(kind, set) breakdown is a
	// separate metric name so neither double-counts the other.
	obs.PromHeader(w, "fieldrepl_op_latency_seconds", "histogram", "Operation wall time by kind.")
	byKind := db.obs.LatencyByKind()
	for _, kind := range obs.SortedKeys(byKind) {
		obs.PromHistogram(w, "fieldrepl_op_latency_seconds", byKind[kind], "kind", kind)
	}
	if kindSet := db.obs.LatencyByKindSet(); len(kindSet) > 0 {
		obs.PromHeader(w, "fieldrepl_op_set_latency_seconds", "histogram", "Operation wall time by kind and set.")
		for _, ks := range kindSet {
			obs.PromHistogram(w, "fieldrepl_op_set_latency_seconds", ks.Snap, "kind", ks.Kind, "set", ks.Set)
		}
	}

	read, write := db.pool.StallHists()
	obs.PromHeader(w, "fieldrepl_pool_read_stall_seconds", "histogram", "Time stalled on store page reads (misses).")
	obs.PromHistogram(w, "fieldrepl_pool_read_stall_seconds", read)
	obs.PromHeader(w, "fieldrepl_pool_write_stall_seconds", "histogram", "Time stalled on dirty write-backs, including the WAL write barrier.")
	obs.PromHistogram(w, "fieldrepl_pool_write_stall_seconds", write)

	if db.wal != nil {
		st := db.wal.Stats()
		obs.PromCounter(w, "fieldrepl_wal_records_total", "WAL records appended.", st.Records)
		obs.PromCounter(w, "fieldrepl_wal_commits_total", "WAL commit records appended.", st.Commits)
		obs.PromCounter(w, "fieldrepl_wal_fsyncs_total", "WAL fsyncs performed.", st.Fsyncs)
		obs.PromCounter(w, "fieldrepl_wal_bytes_total", "WAL bytes appended.", st.Bytes)
		obs.PromCounter(w, "fieldrepl_wal_checkpoints_total", "WAL checkpoints (log truncations).", st.Checkpoints)
		obs.PromCounter(w, "fieldrepl_wal_full_images_total", "Page records logged as full images (a page's first record after a checkpoint).", st.FullImages)
		obs.PromCounter(w, "fieldrepl_wal_delta_records_total", "Page records logged as byte-range deltas.", st.DeltaRecords)
		obs.PromCounter(w, "fieldrepl_wal_sync_waits_total", "Commits that waited for durability.", st.SyncWaits)
		obs.PromCounter(w, "fieldrepl_wal_shared_syncs_total", "Durability waits satisfied by another committer's fsync.", st.SharedSyncs)
		obs.PromGauge(w, "fieldrepl_wal_sync_queue", "Committers currently inside the durability wait.", float64(st.SyncQueue))
		obs.PromHeader(w, "fieldrepl_wal_fsync_wait_seconds", "histogram", "Time committers spent in the group-commit durability rendezvous.")
		obs.PromHistogram(w, "fieldrepl_wal_fsync_wait_seconds", db.wal.FsyncWaitHist())
		obs.PromCounter(w, "fieldrepl_wal_checkpoints_deferred_total", "Checkpoints that kept the log for a replication consumer.", st.CheckpointsDeferred)
		obs.PromCounter(w, "fieldrepl_wal_runway_bytes_total", "Zero bytes written ahead of the WAL append offset by runway fills.", st.RunwayBytes)
		obs.PromCounter(w, "fieldrepl_wal_runway_fsyncs_total", "Fsyncs of runway fills.", st.RunwayFsyncs)
		obs.PromCounter(w, "fieldrepl_wal_fill_waits_total", "WAL appends that waited for a runway fill to finish.", st.FillWaits)
		obs.PromCounter(w, "fieldrepl_wal_runway_outruns_total", "WAL appends that ran past the runway and grew the log file.", st.RunwayOutruns)
		obs.PromCounter(w, "fieldrepl_wal_fill_failures_total", "Runway fills dropped because their write failed.", st.FillFailures)
	}

	if p := db.primary.Load(); p != nil {
		ps := p.Status()
		obs.PromGauge(w, "fieldrepl_repl_followers", "Followers currently connected.", float64(len(ps.Followers)))
		obs.PromCounter(w, "fieldrepl_repl_sync_timeouts_total", "Semi-sync waits that degraded to asynchronous.", ps.SyncTimeouts)
		obs.PromCounter(w, "fieldrepl_repl_unreplicated_total", "Semi-sync commits acked with no follower connected.", ps.Unreplicated)
		obs.PromCounter(w, "fieldrepl_repl_resyncs_total", "Followers sent back for a full snapshot.", ps.Resyncs)
		obs.PromCounter(w, "fieldrepl_repl_snapshots_total", "Snapshots shipped to followers.", ps.Snapshots)
		obs.PromHeader(w, "fieldrepl_repl_follower_lag_lsn", "gauge", "Per-follower replication lag in LSNs (primary durable - follower acked).")
		for _, fi := range ps.Followers {
			obs.PromValue(w, "fieldrepl_repl_follower_lag_lsn", float64(fi.LagLSN), "addr", fi.Addr)
		}
		obs.PromHeader(w, "fieldrepl_repl_follower_lag_ms", "gauge", "Per-follower replication lag in milliseconds (time the oldest unacked record has been outstanding).")
		for _, fi := range ps.Followers {
			obs.PromValue(w, "fieldrepl_repl_follower_lag_ms", fi.LagMs, "addr", fi.Addr)
		}
	}
	if db.advisor != nil {
		rep := db.Advise()
		obs.PromCounter(w, "fieldrepl_advisor_windows_total", "Advisor aggregation windows completed.", rep.WindowsRotated)
		obs.PromCounter(w, "fieldrepl_advisor_ops_total", "Path-relevant operations the advisor aggregated.", rep.OpsObserved)
		if len(rep.Recommendations) > 0 {
			obs.PromHeader(w, "fieldrepl_advisor_path_reads_total", "counter", "Read queries observed through each path.")
			for _, r := range rep.Recommendations {
				obs.PromValue(w, "fieldrepl_advisor_path_reads_total", float64(r.Reads), "path", r.Path)
			}
			obs.PromHeader(w, "fieldrepl_advisor_path_updates_total", "counter", "Updates observed propagating into each path.")
			for _, r := range rep.Recommendations {
				obs.PromValue(w, "fieldrepl_advisor_path_updates_total", float64(r.Updates), "path", r.Path)
			}
			obs.PromHeader(w, "fieldrepl_advisor_path_update_fraction", "gauge", "Windowed update fraction of each path's observed mix.")
			for _, r := range rep.Recommendations {
				obs.PromValue(w, "fieldrepl_advisor_path_update_fraction", r.UpdateFraction, "path", r.Path)
			}
			obs.PromHeader(w, "fieldrepl_advisor_strategy_cost", "gauge", "Section-6 pages per operation for each strategy at the observed mix.")
			for _, r := range rep.Recommendations {
				for _, st := range []string{"no-replication", "in-place", "separate"} {
					obs.PromValue(w, "fieldrepl_advisor_strategy_cost", r.Costs[st].TotalPages, "path", r.Path, "strategy", st)
				}
			}
			obs.PromHeader(w, "fieldrepl_advisor_predicted_savings_pct", "gauge", "Predicted total-cost saving of the recommended strategy over the current one.")
			for _, r := range rep.Recommendations {
				obs.PromValue(w, "fieldrepl_advisor_predicted_savings_pct", r.PredictedSavingsPct, "path", r.Path, "recommended", r.Recommended)
			}
		}
		if len(rep.ModelDrift) > 0 {
			obs.PromHeader(w, "fieldrepl_advisor_model_error_pct", "gauge", "Predicted-vs-observed page error quantiles per access label.")
			for _, label := range obs.SortedKeys(rep.ModelDrift) {
				d := rep.ModelDrift[label]
				obs.PromValue(w, "fieldrepl_advisor_model_error_pct", d.P50Pct, "access", label, "quantile", "0.5")
				obs.PromValue(w, "fieldrepl_advisor_model_error_pct", d.P95Pct, "access", label, "quantile", "0.95")
				obs.PromValue(w, "fieldrepl_advisor_model_error_pct", d.P99Pct, "access", label, "quantile", "0.99")
			}
		}
	}

	if f := db.follower.Load(); f != nil {
		fs := f.Status()
		connected := 0.0
		if fs.Connected {
			connected = 1
		}
		obs.PromGauge(w, "fieldrepl_repl_connected", "1 while the follower's replication session is established.", connected)
		obs.PromGauge(w, "fieldrepl_repl_applied_lsn", "Last LSN durably applied by this follower.", float64(fs.AppliedLSN))
		obs.PromGauge(w, "fieldrepl_repl_lag_lsn", "Replication lag in LSNs as of the last heartbeat.", float64(fs.LagLSN))
		obs.PromCounter(w, "fieldrepl_repl_reconnects_total", "Replication session reconnect attempts.", fs.Reconnects)
		obs.PromCounter(w, "fieldrepl_repl_bad_frames_total", "Record batches rejected for framing or CRC damage.", fs.BadFrames)
		obs.PromHeader(w, "fieldrepl_repl_apply_seconds", "histogram", "Follower batch apply latency (receipt to local durability).")
		obs.PromHistogram(w, "fieldrepl_repl_apply_seconds", f.ApplyHist())
	}
}

// handleAdvisor serves the advisor report as indented JSON.
func (db *DB) handleAdvisor(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(db.Advise())
}

func (db *DB) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(db.Metrics())
}

// handleTraces streams the recent-trace ring as NDJSON, one Record per line,
// in completion order (oldest completion first — ids are issued at Start, so
// overlapping operations appear with non-monotonic ids; see obs.Recent).
func (db *DB) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, rec := range db.obs.Recent() {
		if err := enc.Encode(rec); err != nil {
			return
		}
	}
}
