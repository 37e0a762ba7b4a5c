package fieldrepl

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSlowQueryLogConcurrent drives writers and readers from several
// goroutines with a 1ns threshold (every operation fires the sink) and, from
// inside the sink, re-enters the database's observability accessors. The sink
// runs on the completing operation's goroutine while that operation is still
// inside a public method, so this deadlocks — with or without -race — unless
// the sink is invoked outside all locks and the accessors take none. (IO()
// did deadlock while the handle had its own lock: the operation held it
// shared and IO() asked for it exclusively.) A watchdog fails the test with
// the sink counts when the goroutines stall, rather than leaving only the
// package timeout's goroutine dump.
func TestSlowQueryLogConcurrent(t *testing.T) {
	db, oids := openCompany(t)

	var fired, reentered atomic.Int64
	db.SetSlowQueryLog(time.Nanosecond, func(r TraceRecord) {
		fired.Add(1)
		if r.Kind == "" || r.Wall <= 0 {
			t.Errorf("sink got malformed record: %+v", r)
		}
		// Re-enter every observability accessor from the sink.
		if _, err := db.MetricsJSON(); err != nil {
			t.Errorf("MetricsJSON from sink: %v", err)
		}
		_ = db.RecentTraces()
		_, _ = db.WALStats()
		_ = db.IO()
		reentered.Add(1)
	})

	const writers, readers, rounds = 3, 3, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := db.Insert("Emp1", V{
					"name": S(fmt.Sprintf("w%d-%d", w, i)), "age": I(30),
					"salary": I(int64(50000 + i)), "dept": R(oids["research"]),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := db.Query(Query{Set: "Emp1", Project: []string{"name"},
					Where: &Pred{Expr: "salary", Op: GT, Value: I(0)}})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("deadlock: %d sink calls entered, %d completed re-entry", fired.Load(), reentered.Load())
	}

	if got := fired.Load(); got < writers*rounds+readers*rounds {
		t.Fatalf("sink fired %d times, want >= %d", got, writers*rounds+readers*rounds)
	}
	if fired.Load() != reentered.Load() {
		t.Fatalf("sink fired %d but completed re-entry %d times", fired.Load(), reentered.Load())
	}

	// Disable and confirm the sink stops firing.
	db.SetSlowQueryLog(0, nil)
	before := fired.Load()
	if _, err := db.Query(Query{Set: "Emp1", Project: []string{"name"}}); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != before {
		t.Fatal("sink fired after being disabled")
	}
}

// TestServeMetrics exercises the public HTTP surface end to end: a real
// listener on an ephemeral port, a scrape of each endpoint, then Close.
func TestServeMetrics(t *testing.T) {
	db, _ := openCompany(t)
	if _, err := db.Query(Query{Set: "Emp1", Project: []string{"name"}}); err != nil {
		t.Fatal(err)
	}

	srv, err := db.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := fetch("/metrics"); !strings.Contains(body, `fieldrepl_op_latency_seconds_bucket{kind="query"`) {
		t.Error("/metrics missing query latency histogram")
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(fetch("/debug/vars")), &vars); err != nil {
		t.Fatal(err)
	}
	if string(vars["wal"]) != "null" {
		t.Errorf("in-memory wal = %s, want null", vars["wal"])
	}
	if !strings.Contains(fetch("/debug/traces"), `"kind":"query"`) {
		t.Error("/debug/traces missing query trace")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("scrape succeeded after Close")
	}
}
