package engine

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/exodb/fieldrepl/internal/advisor"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/schema"
)

// get issues a request against the handler and returns the response recorder.
func get(t *testing.T, db *DB, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	db.MetricsHandler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// workload runs enough traced operations to populate every histogram family:
// DML (insert/update), queries (scan and index), and a WAL durability wait
// when the database is file-backed.
func workload(t *testing.T, db *DB) {
	t.Helper()
	st := populate(t, db, 2, 4, 40)
	if err := db.Update("Emp1", st.emps[0], map[string]schema.Value{"salary": num(99000)}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		{Set: "Emp1", Project: []string{"name", "salary"}},
		{Set: "Emp1", Project: []string{"name"}, Where: &Pred{Expr: "salary", Op: OpGT, Value: num(60000)}},
		// A dotted-path read, so the advisor has a path to aggregate.
		{Set: "Emp1", Project: []string{"name"}, Where: &Pred{Expr: "dept.name", Op: OpEQ, Value: str("dept-01")}},
	} {
		if _, _, err := db.Query(nil, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsHandlerProm(t *testing.T) {
	db := openEmployeeDB(t, Config{Dir: t.TempDir(), PoolPages: 256})
	workload(t, db)

	w := get(t, db, "/metrics")
	if w.Code != 200 {
		t.Fatalf("/metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`fieldrepl_op_latency_seconds_bucket{kind="dml",le="+Inf"}`,
		`fieldrepl_op_latency_seconds_count{kind="query"}`,
		`fieldrepl_op_set_latency_seconds_bucket{kind="query",set="Emp1",`,
		"fieldrepl_pool_read_stall_seconds_bucket",
		"fieldrepl_pool_write_stall_seconds_count",
		"fieldrepl_wal_fsync_wait_seconds_bucket",
		"fieldrepl_wal_sync_queue 0",
		"fieldrepl_wal_commits_total",
		"fieldrepl_wal_full_images_total",
		"fieldrepl_wal_delta_records_total",
		"fieldrepl_wal_runway_bytes_total",
		"fieldrepl_wal_runway_fsyncs_total",
		"fieldrepl_wal_fill_waits_total",
		"fieldrepl_wal_runway_outruns_total",
		"fieldrepl_wal_fill_failures_total",
		"fieldrepl_pool_hits_total",
		"fieldrepl_store_reads_total",
		"fieldrepl_ops_completed_total",
		"# TYPE fieldrepl_op_latency_seconds histogram",
		"fieldrepl_advisor_windows_total",
		"fieldrepl_advisor_ops_total",
		`fieldrepl_advisor_path_reads_total{path="Emp1.dept.name"}`,
		`fieldrepl_advisor_path_update_fraction{path="Emp1.dept.name"}`,
		`fieldrepl_advisor_strategy_cost{path="Emp1.dept.name",strategy="no-replication"}`,
		`fieldrepl_advisor_strategy_cost{path="Emp1.dept.name",strategy="separate"}`,
		`fieldrepl_advisor_predicted_savings_pct{path="Emp1.dept.name",`,
		`quantile="0.95"`,
		"# TYPE fieldrepl_advisor_model_error_pct gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Minimal exposition-format lint: every non-comment line is
	// "name{labels} value" or "name value", every histogram ends at +Inf, and
	// _count equals the +Inf bucket.
	var infBucket, count map[string]string
	infBucket, count = map[string]string{}, map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		series := line[:sp]
		if i := strings.Index(series, `le="+Inf"`); i >= 0 {
			base := series[:strings.IndexByte(series, '{')]
			infBucket[strings.TrimSuffix(base, "_bucket")+labelsOf(series)] = line[sp+1:]
		}
		if i := strings.Index(series, "_count"); i >= 0 && !strings.Contains(series, "le=") {
			base := series[:i]
			count[base+labelsOf(series)] = line[sp+1:]
		}
	}
	for key, n := range count {
		if inf, ok := infBucket[key]; ok && inf != n {
			t.Errorf("series %s: +Inf bucket %s != count %s", key, inf, n)
		}
	}
}

// labelsOf extracts the non-le labels of a series for bucket/count matching.
func labelsOf(series string) string {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return ""
	}
	var keep []string
	for _, l := range strings.Split(strings.Trim(series[i:], "{}"), ",") {
		if l != "" && !strings.HasPrefix(l, "le=") {
			keep = append(keep, l)
		}
	}
	return "{" + strings.Join(keep, ",") + "}"
}

func TestMetricsHandlerVars(t *testing.T) {
	t.Run("file-backed", func(t *testing.T) {
		db := openEmployeeDB(t, Config{Dir: t.TempDir()})
		workload(t, db)
		w := get(t, db, "/debug/vars")
		if w.Code != 200 {
			t.Fatalf("/debug/vars status %d", w.Code)
		}
		var m Metrics
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if m.WAL == nil {
			t.Fatal("file-backed /debug/vars reported wal null")
		}
		if m.WAL.Commits == 0 || m.WAL.SyncWaits == 0 {
			t.Fatalf("wal counters not populated: %+v", *m.WAL)
		}
		if m.Latency["dml"].Count == 0 {
			t.Fatal("latency digest missing dml")
		}
		if _, ok := m.Contention["wal_fsync_wait"]; !ok {
			t.Fatal("contention digest missing wal_fsync_wait")
		}
	})
	t.Run("in-memory", func(t *testing.T) {
		db := openEmployeeDB(t, Config{})
		workload(t, db)
		w := get(t, db, "/debug/vars")
		// "no WAL" must be an explicit null, distinguishable from a WAL with
		// zero activity.
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		walRaw, ok := raw["wal"]
		if !ok {
			t.Fatal(`in-memory /debug/vars omitted the "wal" key`)
		}
		if string(walRaw) != "null" {
			t.Fatalf(`in-memory wal = %s, want null`, walRaw)
		}
		var m Metrics
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Contention["wal_fsync_wait"]; ok {
			t.Fatal("in-memory contention digest includes wal_fsync_wait")
		}
	})
}

func TestMetricsHandlerTraces(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	workload(t, db)
	// A traced flush is the last operation to complete, so the
	// completion-ordered ring must end with it.
	if _, err := db.FlushAllTraced(); err != nil {
		t.Fatal(err)
	}
	w := get(t, db, "/debug/traces")
	if w.Code != 200 {
		t.Fatalf("/debug/traces status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var n int
	dec := json.NewDecoder(w.Body)
	var last obs.Record
	var sawPredicted, sawPaths bool
	for dec.More() {
		var rec obs.Record
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("trace line %d: %v", n, err)
		}
		if rec.Kind == "" {
			t.Fatalf("trace line %d has empty kind", n)
		}
		sawPredicted = sawPredicted || rec.PredictedPages > 0
		sawPaths = sawPaths || len(rec.Paths) > 0
		last = rec
		n++
	}
	if n == 0 {
		t.Fatal("no trace lines")
	}
	// Planned operations carry the planner's page prediction and the dotted
	// query its path keys, so predicted-vs-observed is visible per trace.
	if !sawPredicted {
		t.Fatal("no trace carried predicted_pages")
	}
	if !sawPaths {
		t.Fatal("no trace carried path keys")
	}
	// workload ends with a flush, and the ring is completion-ordered.
	if last.Kind != obs.KindFlush {
		t.Fatalf("last trace kind = %q, want %q", last.Kind, obs.KindFlush)
	}
}

func TestAdvisorEndpoint(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	workload(t, db)
	w := get(t, db, "/advisor")
	if w.Code != 200 {
		t.Fatalf("/advisor status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var rep advisor.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Enabled {
		t.Fatal("/advisor report disabled")
	}
	if rep.TracesObserved == 0 {
		t.Fatal("/advisor observed no traces")
	}
	var found bool
	for _, rec := range rep.Recommendations {
		if rec.Path == "Emp1.dept.name" {
			found = true
			if rec.WindowReads == 0 {
				t.Fatalf("dotted-path recommendation has no reads: %+v", rec)
			}
		}
	}
	if !found {
		t.Fatalf("no recommendation for Emp1.dept.name: %+v", rep.Recommendations)
	}
}

func TestMetricsHandlerPprof(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	w := get(t, db, "/debug/pprof/")
	if w.Code != 200 {
		t.Fatalf("/debug/pprof/ status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
	if w := get(t, db, "/debug/pprof/goroutine?debug=1"); w.Code != 200 {
		t.Fatalf("/debug/pprof/goroutine status %d", w.Code)
	}
}
