package fieldrepl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// TestServeMetrics exercises the public HTTP surface end to end: the query
// server's port on an ephemeral address serves the telemetry routes beside
// /stats, a scrape of each endpoint, then Close.
func TestServeMetrics(t *testing.T) {
	db, _ := openCompany(t)
	if _, err := db.Query(Query{Set: "Emp1", Project: []string{"name"}}); err != nil {
		t.Fatal(err)
	}

	srv, err := db.Serve("127.0.0.1:0", ServerConfig{})
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
	if !strings.Contains(fetch("/replication"), `"role"`) {
		t.Error("/replication missing the role")
	}
	if !strings.Contains(fetch("/stats"), `"accepted"`) {
		t.Error("/stats missing the connection accounting")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("scrape succeeded after Close")
	}
}

// TestIOCountsAllocs checks that IO reports the store's page allocations:
// the inserts that populate a fresh database allocate its sets' pages.
func TestIOCountsAllocs(t *testing.T) {
	db, _ := openCompany(t)
	if io := db.IO(); io.Allocs <= 0 {
		t.Fatalf("IO %+v counts no page allocation after inserts", io)
	}
}

// TestSlowQueryLogLockConflicts checks that a one-shot write which waits
// behind an open BeginSets transaction on its set reaches the slow-query sink
// with the conflict counted. The write gives up when its context expires, so
// the transaction holds the set for the whole wait.
func TestSlowQueryLogLockConflicts(t *testing.T) {
	db, _ := openCompany(t)
	recs := make(chan TraceRecord, 1)
	db.SetSlowQueryLog(time.Nanosecond, func(r TraceRecord) {
		if r.Kind == "update-where" {
			recs <- r
		}
	})
	tx, err := db.BeginSets(context.Background(), "Emp1")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = db.UpdateWhereCtx(ctx, "Emp1", Pred{Expr: "name", Op: EQ, Value: S("Alice")}, V{"salary": I(1)})
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("write behind a transaction: err = %v, want ErrWriteConflict", err)
	}
	if r := <-recs; r.LockConflicts != 1 {
		t.Fatalf("write behind a transaction: lock_conflicts = %d, want 1", r.LockConflicts)
	}
}

// holdProxy relays follower↔primary traffic; holding mu stops what the
// primary sends from reaching the follower, so the follower's acks stall.
func holdProxy(t *testing.T, target string) (string, *sync.Mutex) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			go func() {
				_, _ = io.Copy(up, c)
				up.Close()
			}()
			go func() {
				defer c.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := up.Read(buf)
					mu.Lock()
					mu.Unlock()
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &mu
}

// openReplicaPair opens a file-backed primary that ships its log through a
// holdProxy to a follower, and waits until the follower has acknowledged
// everything the primary made durable.
func openReplicaPair(t *testing.T) (p, f *DB, hold *sync.Mutex) {
	t.Helper()
	p, _, _ = openCompanyDir(t)
	addr, err := p.ServeReplication("127.0.0.1:0", ReplicationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	paddr, hold := holdProxy(t, addr)
	f, err = OpenFollower(Config{Dir: t.TempDir()}, paddr, FollowerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ps := p.ReplicationStatus().Primary
		if len(ps.Followers) == 1 && ps.Followers[0].AckedLSN >= ps.DurableLSN {
			return p, f, hold
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", ps)
		}
	}
}

// TestSyncDefersCheckpointForLaggingFollower checks WALStats'
// CheckpointsDeferred: a Sync while the follower has not acknowledged the
// latest commit keeps the log for it instead of truncating.
func TestSyncDefersCheckpointForLaggingFollower(t *testing.T) {
	p, _, hold := openReplicaPair(t)
	hold.Lock()
	defer hold.Unlock()
	if _, err := p.Insert("Org", V{"name": S("Initech"), "budget": I(5)}); err != nil {
		t.Fatal(err)
	}
	before, _ := p.WALStats()
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	after, _ := p.WALStats()
	if after.CheckpointsDeferred != before.CheckpointsDeferred+1 || after.Checkpoints != before.Checkpoints {
		t.Fatalf("Sync behind a lagging follower: deferred %d -> %d, checkpoints %d -> %d; want one deferral, no truncation",
			before.CheckpointsDeferred, after.CheckpointsDeferred, before.Checkpoints, after.Checkpoints)
	}
}

// getJSON serves path from db's metrics handler and decodes the JSON body.
func getJSON(t *testing.T, db *DB, path string) any {
	t.Helper()
	rec := httptest.NewRecorder()
	db.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return decodeJSON(t, rec.Body.Bytes())
}

func decodeJSON(t *testing.T, raw []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestStatusMatchesEndpoints checks that the Go API and the HTTP endpoints
// report one value: AdviseJSON against GET /advisor, and ReplicationStatus
// against GET /replication on both sides of a replica pair.
func TestStatusMatchesEndpoints(t *testing.T) {
	p, f, _ := openReplicaPair(t)
	if err := p.Replicate("Emp1.dept.name", InPlace); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Query(Query{Set: "Emp1", Project: []string{"name", "dept.name"}}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := p.AdviseJSON()
	if err != nil {
		t.Fatal(err)
	}
	if api, served := decodeJSON(t, raw), getJSON(t, p, "/advisor"); !reflect.DeepEqual(api, served) {
		t.Fatalf("AdviseJSON and /advisor differ:\n%v\n%v", api, served)
	}
	if len(p.Advise().Recommendations) == 0 {
		t.Fatal("advisor report has no recommendation to compare")
	}

	for _, db := range []*DB{p, f} {
		enc, err := json.Marshal(db.ReplicationStatus())
		if err != nil {
			t.Fatal(err)
		}
		api, served := decodeJSON(t, enc), getJSON(t, db, "/replication")
		// Time-valued fields move between the two reads; compare the rest.
		for _, v := range []any{api, served} {
			if ps, ok := v.(map[string]any)["primary"].(map[string]any); ok {
				for _, fi := range ps["followers"].([]any) {
					delete(fi.(map[string]any), "lag_ms")
					delete(fi.(map[string]any), "connected_sec")
				}
			}
		}
		if !reflect.DeepEqual(api, served) {
			t.Fatalf("ReplicationStatus and /replication differ:\n%v\n%v", api, served)
		}
	}
}
