package fieldrepl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/client"
	"github.com/exodb/fieldrepl/internal/server"
)

const serverTestSchema = `
define type DEPT (
    name:   char[],
    budget: int
)
define type EMP (
    name:   char[],
    age:    int,
    salary: int,
    dept:   ref DEPT
)
create Dept: {own ref DEPT}
create Emp1: {own ref EMP}
let research = insert Dept (name = "Research", budget = 100)
insert Emp1 (name = "Alice", age = 30, salary = 120000, dept = research)
insert Emp1 (name = "Bob", age = 40, salary = 90000, dept = research)
`

func startQueryServer(t *testing.T, cfg ServerConfig) (*DB, *Server, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(serverTestSchema); err != nil {
		db.Close()
		t.Fatal(err)
	}
	srv, err := db.Serve("127.0.0.1:0", cfg)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	return db, srv, dir
}

func dialClient(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func countEmp(t *testing.T, c *client.Client) int {
	t.Helper()
	rs, err := c.Exec(context.Background(), "retrieve (Emp1.name)")
	if err != nil {
		t.Fatal(err)
	}
	return len(rs[0].Rows)
}

// TestServerReadersNeverWaitOnWriters is the PR's headline property, at unit
// scale (loadbench checks it at thousands of connections): read-only network
// sessions run retrieves on the snapshot path and accumulate zero set-lock
// wait while concurrent sessions commit inserts, and every trace carries its
// session's origin.
func TestServerReadersNeverWaitOnWriters(t *testing.T) {
	db, srv, _ := startQueryServer(t, ServerConfig{})

	var mu sync.Mutex
	var recs []TraceRecord
	db.SetSlowQueryLog(time.Nanosecond, func(r TraceRecord) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	})
	defer db.SetSlowQueryLog(0, nil)

	const writers, readers = 3, 3
	stop := make(chan struct{})
	var wrote, read atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr(), client.Config{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				script := fmt.Sprintf(`insert Emp1 (name = "w%d-%d", age = 20, salary = 50000, dept = nil)`, w, i)
				if _, err := c.Exec(context.Background(), script); err != nil {
					t.Error(err)
					return
				}
				wrote.Add(1)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(srv.Addr(), client.Config{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := c.Exec(context.Background(), `retrieve (Emp1.name) where Emp1.salary > 100000`)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rs) != 1 {
					t.Errorf("got %d results", len(rs))
					return
				}
				read.Add(1)
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if wrote.Load() == 0 || read.Load() == 0 {
		t.Fatalf("no overlap: %d writes, %d reads", wrote.Load(), read.Load())
	}

	mu.Lock()
	defer mu.Unlock()
	var queries int
	var queryLockWait int64
	origins := map[string]bool{}
	for _, r := range recs {
		if r.Kind != "query" {
			continue
		}
		queries++
		queryLockWait += r.LockWaitNs
		origins[r.Origin] = true
	}
	if queries == 0 {
		t.Fatal("no query traces captured")
	}
	if queryLockWait != 0 {
		t.Fatalf("read sessions accumulated %dns of set-lock wait across %d queries; snapshot reads must never wait", queryLockWait, queries)
	}
	for o := range origins {
		if !strings.HasPrefix(o, "sess-") {
			t.Fatalf("query trace without session origin: %q", o)
		}
	}
	if len(origins) < readers {
		t.Fatalf("expected ≥%d distinct reader origins, got %v", readers, origins)
	}
}

// TestServerDisconnectCancelsBlockedStatement: a client whose statement is
// waiting on a per-set write lock disconnects; the server's watchdog cancels
// the statement's context, the handler exits while the lock is still held by
// another session, and the statement's effect never applies.
func TestServerDisconnectCancelsBlockedStatement(t *testing.T) {
	_, srv, _ := startQueryServer(t, ServerConfig{})

	a := dialClient(t, srv.Addr())
	if _, err := a.Exec(context.Background(), "begin on Emp1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(context.Background(), `insert Emp1 (name = "held", age = 1, salary = 1, dept = nil)`); err != nil {
		t.Fatal(err)
	}

	// Raw native connection so closing it drops the TCP stream without a
	// clean Bye — the shape of a crashed client.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(server.Magic)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if typ, _, err := server.ReadFrame(br); err != nil || typ != server.MsgHello {
		t.Fatalf("handshake: typ 0x%02x err %v", typ, err)
	}
	// This insert blocks on Emp1's set lock, which session A holds.
	if err := server.WriteFrame(conn, server.MsgExec, []byte(`insert Emp1 (name = "ghost", age = 2, salary = 2, dept = nil)`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if st := srv.Stats(); st.Active != 2 {
		t.Fatalf("active %d, want 2", st.Active)
	}
	conn.Close()

	// The handler can only exit via context cancellation: A still holds the
	// lock the statement is queued on.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Active != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocked statement not cancelled by disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := a.Exec(context.Background(), "commit"); err != nil {
		t.Fatal(err)
	}
	if n := countEmp(t, a); n != 3 { // 2 seeded + A's insert; the ghost never landed
		t.Fatalf("Emp1 has %d rows, want 3", n)
	}
}

func TestServerConnectionLimit(t *testing.T) {
	_, srv, _ := startQueryServer(t, ServerConfig{MaxConns: 1})
	_ = dialClient(t, srv.Addr())

	_, err := client.Dial(srv.Addr(), client.Config{})
	if err == nil {
		t.Fatal("second connection accepted over MaxConns=1")
	}
	if !errors.Is(err, ErrTooManyConnections) {
		t.Fatalf("error %v does not match ErrTooManyConnections", err)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestServerCrashMidDMLRecoverable: the store dies (CrashStop — no flush)
// while network clients are streaming inserts; every insert a client saw
// acknowledged is on disk after reopening the directory.
func TestServerCrashMidDMLRecoverable(t *testing.T) {
	db, srv, dir := startQueryServer(t, ServerConfig{})

	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr(), client.Config{})
			if err != nil {
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				script := fmt.Sprintf(`insert Emp1 (name = "c%d-%d", age = 20, salary = 1, dept = nil)`, w, i)
				if _, err := c.Exec(context.Background(), script); err != nil {
					return // the crash: server error or dead connection
				}
				acked.Add(1)
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	db.CrashStop()
	srv.Close()
	wg.Wait()
	if acked.Load() == 0 {
		t.Fatal("no inserts acknowledged before the crash")
	}

	re, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	out, err := re.ExecOne("retrieve (Emp1.name)")
	if err != nil {
		t.Fatal(err)
	}
	got := int64(len(out.Rows)) - 2 // minus seeded rows
	if got < acked.Load() {
		t.Fatalf("recovered %d inserts, but %d were acknowledged", got, acked.Load())
	}
	if _, err := re.ExecOne(`insert Emp1 (name = "post", age = 1, salary = 1, dept = nil)`); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

// TestServerSessionTxnAndBindings: native sessions hold state across
// requests — a transaction begun in one request commits in a later one and
// is invisible to other sessions until then; let-bindings persist per
// session and never leak across sessions.
func TestServerSessionTxnAndBindings(t *testing.T) {
	_, srv, _ := startQueryServer(t, ServerConfig{})
	a := dialClient(t, srv.Addr())
	b := dialClient(t, srv.Addr())

	if _, err := a.Exec(context.Background(), "begin on Emp1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(context.Background(), `insert Emp1 (name = "Txny", age = 25, salary = 70000, dept = nil)`); err != nil {
		t.Fatal(err)
	}
	if n := countEmp(t, b); n != 2 {
		t.Fatalf("uncommitted insert visible to other session: %d rows", n)
	}
	if _, err := a.Exec(context.Background(), "commit"); err != nil {
		t.Fatal(err)
	}
	if n := countEmp(t, b); n != 3 {
		t.Fatalf("committed insert not visible: %d rows", n)
	}

	if _, err := a.Exec(context.Background(), `let ops = insert Dept (name = "Ops", budget = 7)`); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(context.Background(), `insert Emp1 (name = "Opsy", age = 31, salary = 60000, dept = ops)`); err != nil {
		t.Fatalf("binding did not persist across requests: %v", err)
	}
	if _, err := b.Exec(context.Background(), `insert Emp1 (name = "Leak", age = 31, salary = 60000, dept = ops)`); err == nil {
		t.Fatal("binding leaked across sessions")
	}
	if a.Origin() == b.Origin() {
		t.Fatalf("sessions share origin %q", a.Origin())
	}
}

// TestExecCtxCancelled: DB.ExecCtx honors an already-cancelled context.
func TestExecCtxCancelled(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecCtx(ctx, `define type T ( x: int )`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

// TestSessionClosed: statements after Session.Close fail with the sentinel.
func TestSessionClosed(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("retrieve (X.y)"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("err %v, want ErrSessionClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanOnWireOnlyForExplain: the wire carries a rendered plan for explain
// statements only, while an embedded session renders every retrieve's plan.
func TestPlanOnWireOnlyForExplain(t *testing.T) {
	db, srv, _ := startQueryServer(t, ServerConfig{})
	const plain = "retrieve (Emp1.name) where Emp1.salary > 100000"
	c := dialClient(t, srv.Addr())
	rs, err := c.Exec(context.Background(), plain+"\nexplain "+plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || len(rs[0].Rows) != 1 {
		t.Fatalf("results %+v", rs)
	}
	if rs[0].Plan != "" {
		t.Fatalf("plain retrieve sent a plan over the wire:\n%s", rs[0].Plan)
	}
	if !strings.HasPrefix(rs[1].Plan, "plan: ") || !strings.Contains(rs[1].Plan, "observed=") {
		t.Fatalf("explain retrieve plan over the wire = %q", rs[1].Plan)
	}

	s := db.NewSession()
	defer s.Close()
	outs, err := s.ExecCtx(context.Background(), plain+"\nexplain "+plain)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(outs[0].Plan, "plan: seq-scan on Emp1") || strings.Contains(outs[0].Plan, "observed=") {
		t.Fatalf("embedded plain retrieve plan = %q", outs[0].Plan)
	}
	if !strings.HasPrefix(outs[1].Plan, "plan: ") || !strings.Contains(outs[1].Plan, "observed=") {
		t.Fatalf("embedded explain retrieve plan = %q", outs[1].Plan)
	}
}

// BenchmarkServedRetrieve is one client of the benchmark's serve.mixed read:
// a loopback DB.Serve and a client.Client run `retrieve (Emp.name,
// Emp.dept.name) where Emp.id between k and k+19` over Emp clustered by id,
// with Emp.dept.name replicated in place. Every page is a pool hit, so the
// time is the fixed cost of a served statement: wire, session, parse, plan,
// index range and row encoding.
func BenchmarkServedRetrieve(b *testing.B) {
	const nDept, nEmp, span = 200, 20000, 20
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineType("DEPT", []Field{{Name: "name", Kind: String}, {Name: "budget", Kind: Int}}); err != nil {
		b.Fatal(err)
	}
	if err := db.DefineType("EMP", []Field{{Name: "id", Kind: Int}, {Name: "name", Kind: String},
		{Name: "salary", Kind: Int}, {Name: "dept", Kind: Ref, RefType: "DEPT"}}); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateSet("Dept", "DEPT"); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateSet("Emp", "EMP"); err != nil {
		b.Fatal(err)
	}
	depts := make([]OID, nDept)
	for i := range depts {
		if depts[i], err = db.Insert("Dept", V{"name": S(fmt.Sprintf("dept-%d", i)), "budget": I(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < nEmp; i++ {
		if _, err := db.Insert("Emp", V{"id": I(int64(i)), "name": S(fmt.Sprintf("emp-%d", i)),
			"salary": I(int64(30000 + i)), "dept": R(depts[i*7%nDept])}); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.BuildIndex("emp_id", "Emp", "id", true); err != nil {
		b.Fatal(err)
	}
	if err := db.Replicate("Emp.dept.name", InPlace); err != nil {
		b.Fatal(err)
	}
	srv, err := db.Serve("127.0.0.1:0", ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr(), client.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	stmts := make([]string, 1024)
	for i := range stmts {
		lo := i * 7919 % (nEmp - span + 1)
		stmts[i] = fmt.Sprintf("retrieve (Emp.name, Emp.dept.name) where Emp.id between %d and %d", lo, lo+span-1)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := c.Exec(ctx, stmts[i%len(stmts)])
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != 1 || len(rs[0].Rows) != span {
			b.Fatalf("%s: %d results", stmts[i%len(stmts)], len(rs))
		}
	}
}
