package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/repl"
	"github.com/exodb/fieldrepl/internal/schema"
)

// fastFollower is the follower tuning every test uses: tight backoff so
// reconnect-driven scenarios converge in milliseconds, not seconds.
func fastFollower() repl.FollowerConfig {
	return repl.FollowerConfig{
		DialTimeout: 2 * time.Second,
		MinBackoff:  10 * time.Millisecond,
		MaxBackoff:  200 * time.Millisecond,
		IdleTimeout: 5 * time.Second,
	}
}

// startPrimary opens a file-backed database and starts shipping its WAL on a
// loopback listener, returning the database and the address followers dial.
func startPrimary(t *testing.T, cfg repl.Config) (*DB, string) {
	t.Helper()
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ServeReplication(ln, cfg); err != nil {
		t.Fatal(err)
	}
	return db, ln.Addr().String()
}

// startFollower attaches a follower replica in dir (fresh or resuming) to the
// primary at addr.
func startFollower(t *testing.T, dir, addr string) *DB {
	t.Helper()
	f, err := OpenFollower(Config{Dir: dir, PoolPages: 512}, addr, fastFollower())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitCaughtUp waits until the follower has durably applied everything the
// primary has appended so far.
func waitCaughtUp(t *testing.T, p, f *DB) {
	t.Helper()
	target := p.wal.LastLSN()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := f.ReplicationStatus().Follower
		if st != nil && st.AppliedLSN >= target {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for follower to reach LSN %d; follower=%+v primary=%+v",
		target, f.ReplicationStatus().Follower, p.ReplicationStatus().Primary)
}

var replSetProj = map[string][]string{
	"Org":  {"name", "budget"},
	"Dept": {"name", "budget"},
	"Emp1": {"name", "age", "salary"},
	"Emp2": {"name", "age", "salary"},
}

// dumpSet renders a set as oid → projected values, the logical image used to
// compare a replica against its primary.
func dumpSet(t *testing.T, db *DB, set string) map[string]string {
	t.Helper()
	res, _, err := db.Query(nil, Query{Set: set, Project: replSetProj[set]})
	if err != nil {
		t.Fatalf("dump %s: %v", set, err)
	}
	out := make(map[string]string, len(res.Rows))
	for _, r := range res.Rows {
		out[fmt.Sprintf("%v", r.OID)] = fmt.Sprintf("%v", r.Values)
	}
	return out
}

// assertReplicaMatches checks the follower is logically identical to the
// primary — same rows at the same OIDs, same physical page counts — and that
// every derived replication structure on the follower verifies clean.
func assertReplicaMatches(t *testing.T, p, f *DB, sets ...string) {
	t.Helper()
	for _, set := range sets {
		want, got := dumpSet(t, p, set), dumpSet(t, f, set)
		if len(want) != len(got) {
			t.Fatalf("set %s: primary has %d rows, follower %d", set, len(want), len(got))
		}
		for oid, vals := range want {
			if got[oid] != vals {
				t.Fatalf("set %s oid %s: primary %q, follower %q", set, oid, vals, got[oid])
			}
		}
		pn, err := p.NumPages(set)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := f.NumPages(set)
		if err != nil {
			t.Fatal(err)
		}
		if pn != fn {
			t.Fatalf("set %s: primary %d pages, follower %d", set, pn, fn)
		}
	}
	verifyDB(t, f)
}

// TestReplicationSnapshotAndStream covers both catch-up paths in one flow: a
// follower attaching to a primary with existing history takes a full
// snapshot, then live writes reach it through the record stream.
func TestReplicationSnapshotAndStream(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 2, 4, 30)
	if err := p.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	// The log begins at LSN 1 with the full history, so a fresh follower
	// could catch up by streaming; checkpoint first so it must snapshot.
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}

	f := startFollower(t, t.TempDir(), addr)
	waitCaughtUp(t, p, f)
	if fs := f.ReplicationStatus().Follower; fs.Snapshots != 1 {
		t.Fatalf("fresh follower behind a truncated log took %d snapshots, want 1", fs.Snapshots)
	}
	assertReplicaMatches(t, p, f, "Org", "Dept", "Emp1")

	// Live stream: inserts, an update that propagates a replicated path, and
	// a delete all land on the replica.
	if _, err := p.Insert("Emp1", map[string]schema.Value{
		"name": str("streamed"), "age": num(33), "salary": num(1), "dept": ref(st.depts[0]),
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Update("Dept", st.depts[0], map[string]schema.Value{"name": str("renamed")}); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete("Emp1", st.emps[2]); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, f)
	assertReplicaMatches(t, p, f, "Org", "Dept", "Emp1")

	// The replicated path answers on the follower without touching Dept.
	res, _, err := f.Query(nil, Query{Set: "Emp1", Project: []string{"name", "dept.name"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("replicated-path query returned nothing on the follower")
	}

	// The replica is read-only: every write entry point refuses.
	if _, err := f.Insert("Emp1", map[string]schema.Value{"name": str("x")}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower Insert: %v, want ErrNotPrimary", err)
	}
	if err := f.Update("Dept", st.depts[0], map[string]schema.Value{"name": str("x")}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower Update: %v, want ErrNotPrimary", err)
	}
	if err := f.Delete("Emp1", st.emps[0]); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower Delete: %v, want ErrNotPrimary", err)
	}
	if err := f.CreateSet("X", "EMP"); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower DDL: %v, want ErrNotPrimary", err)
	}
	if _, err := f.Begin(context.Background()); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower Begin: %v, want ErrNotPrimary", err)
	}
}

// TestReplicationFollowerRestart closes a follower cleanly, lets the primary
// advance, and reopens the same directory: the stream must resume from the
// local log without a snapshot.
func TestReplicationFollowerRestart(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 1, 2, 10)

	fdir := t.TempDir()
	f := startFollower(t, fdir, addr)
	waitCaughtUp(t, p, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		if _, err := p.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("late-%d", i)), "age": num(40), "salary": num(int64(i)), "dept": ref(st.depts[0]),
		}); err != nil {
			t.Fatal(err)
		}
	}

	f2 := startFollower(t, fdir, addr)
	waitCaughtUp(t, p, f2)
	if fs := f2.ReplicationStatus().Follower; fs.Snapshots != 0 {
		t.Fatalf("restarted follower resynced via snapshot (%d), want log resume", fs.Snapshots)
	}
	assertReplicaMatches(t, p, f2, "Org", "Dept", "Emp1")
}

// TestReplicationFollowerCrashRestart kill-9s the follower mid-stream and
// reopens it: local WAL replay must recover the applied state and the stream
// must resume cleanly.
func TestReplicationFollowerCrashRestart(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 1, 2, 10)

	fdir := t.TempDir()
	f := startFollower(t, fdir, addr)
	waitCaughtUp(t, p, f)
	f.CrashStop()

	for i := 0; i < 5; i++ {
		if _, err := p.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("post-crash-%d", i)), "age": num(40), "salary": num(int64(i)), "dept": ref(st.depts[0]),
		}); err != nil {
			t.Fatal(err)
		}
	}

	f2 := startFollower(t, fdir, addr)
	waitCaughtUp(t, p, f2)
	assertReplicaMatches(t, p, f2, "Org", "Dept", "Emp1")
}

// TestReplicationScratchFIDGap burns file IDs on the primary with unlogged
// scratch query outputs, then creates a set whose logged FileCreate lands
// past the gap. The follower must place the new set's file on the logged ID
// (filling the gap with placeholders), and a restart — whose recovery
// replays those same FileCreate records from the local log — must come back
// identical rather than failing on the ID mismatch.
func TestReplicationScratchFIDGap(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 1, 2, 10)

	fdir := t.TempDir()
	f := startFollower(t, fdir, addr)
	waitCaughtUp(t, p, f)

	for i := 0; i < 3; i++ {
		if _, _, err := p.Query(nil, Query{Set: "Emp1", Project: []string{"name"}, EmitOutput: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.CreateSet("Late", "EMP"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert("Late", map[string]schema.Value{
		"name": str("gapped"), "age": num(28), "salary": num(7), "dept": ref(st.depts[0]),
	}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, f)
	assertReplicaMatches(t, p, f, "Org", "Dept", "Emp1")
	res, _, err := f.Query(nil, Query{Set: "Late", Project: []string{"name"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("follower sees %d rows in the gapped set, want 1", len(res.Rows))
	}

	// Crash-restart the follower: recovery replays the local log — gapped
	// FileCreate records included — before the stream resumes.
	f.CrashStop()
	f2 := startFollower(t, fdir, addr)
	waitCaughtUp(t, p, f2)
	assertReplicaMatches(t, p, f2, "Org", "Dept", "Emp1")
	res, _, err = f2.Query(nil, Query{Set: "Late", Project: []string{"name"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("restarted follower sees %d rows in the gapped set, want 1", len(res.Rows))
	}
}

// TestReplicationResyncAfterTruncation detaches the follower, advances and
// checkpoints the primary (truncating the records the follower would need),
// and re-attaches: the primary must deny log catch-up and ship a snapshot.
func TestReplicationResyncAfterTruncation(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 1, 2, 10)

	fdir := t.TempDir()
	f := startFollower(t, fdir, addr)
	waitCaughtUp(t, p, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Wait for the primary's session goroutine to notice the disconnect and
	// release its retain point — otherwise the checkpoint below may defer
	// truncation and the re-attached follower would stream instead of resync.
	waitCond(t, 10*time.Second, "primary drops dead follower", func() bool {
		return len(p.ReplicationStatus().Primary.Followers) == 0
	})

	for i := 0; i < 5; i++ {
		if _, err := p.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("gap-%d", i)), "age": num(40), "salary": num(int64(i)), "dept": ref(st.depts[0]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// No follower is connected, so the checkpoint truncates for real.
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}

	f2 := startFollower(t, fdir, addr)
	waitCaughtUp(t, p, f2)
	if fs := f2.ReplicationStatus().Follower; fs.Snapshots != 1 {
		t.Fatalf("follower behind a truncated log took %d snapshots, want 1", fs.Snapshots)
	}
	if ps := p.ReplicationStatus().Primary; ps.Snapshots < 1 {
		t.Fatal("primary shipped no snapshot")
	}
	assertReplicaMatches(t, p, f2, "Org", "Dept", "Emp1")
}

// damageProxy relays follower↔primary traffic, damaging the first connection
// in the primary→follower direction at a byte offset: either flipping one
// byte (torn frame) or cutting the connection (drop mid-batch). Later
// connections relay cleanly, so the follower's retry converges.
func damageProxy(t *testing.T, target string, corruptAt, cutAt int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var first atomic.Bool
	first.Store(true)
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
			damaged := first.CompareAndSwap(true, false)
			go func() { // follower → primary: always clean
				_, _ = io.Copy(up, c)
				up.Close()
				c.Close()
			}()
			go func() { // primary → follower: damage the first session
				defer c.Close()
				defer up.Close()
				if !damaged {
					_, _ = io.Copy(c, up)
					return
				}
				var seen int64
				buf := make([]byte, 4096)
				for {
					n, err := up.Read(buf)
					if n > 0 {
						b := buf[:n]
						if corruptAt >= 0 && corruptAt >= seen && corruptAt < seen+int64(n) {
							b[corruptAt-seen] ^= 0x5A
						}
						if cutAt >= 0 && seen+int64(n) > cutAt {
							_, _ = c.Write(b[:cutAt-seen])
							return
						}
						if _, werr := c.Write(b); werr != nil {
							return
						}
						seen += int64(n)
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// replicationDamageScenario drives bulk load through a damaged first session
// and asserts the follower retries and still converges byte-identical.
func replicationDamageScenario(t *testing.T, corruptAt, cutAt int64) {
	t.Helper()
	p, addr := startPrimary(t, repl.Config{})
	// Attach the follower before any data exists so both sides start at LSN
	// 0 and everything travels through the record stream (no snapshot).
	f := startFollower(t, t.TempDir(), damageProxy(t, addr, corruptAt, cutAt))
	waitCond(t, 15*time.Second, "follower session", func() bool {
		fs := f.ReplicationStatus().Follower
		return fs != nil && fs.Connected
	})

	defineEmployeeSchema(t, p)
	populate(t, p, 2, 4, 60) // ~60 pages of record traffic past the damage offset

	waitCaughtUp(t, p, f)
	if fs := f.ReplicationStatus().Follower; fs.Reconnects < 1 {
		t.Fatalf("damage at corrupt=%d cut=%d never forced a reconnect", corruptAt, cutAt)
	}
	assertReplicaMatches(t, p, f, "Org", "Dept", "Emp1")
}

// TestReplicationTornFrame flips one byte deep in the record stream: the
// follower must reject the damaged batch (envelope CRC), reconnect, and
// converge without ever applying damaged bytes.
func TestReplicationTornFrame(t *testing.T) {
	replicationDamageScenario(t, 20_000, -1)
}

// TestReplicationConnDropMidBatch cuts the connection mid-batch: the
// follower must resume from its last durable commit boundary and converge.
func TestReplicationConnDropMidBatch(t *testing.T) {
	replicationDamageScenario(t, -1, 20_000)
}

// TestPromoteRefusesConnectedLaggedFollower stalls the follower's applier
// (holding its writer lock) while the primary commits, then asserts Promote
// refuses with ErrFollowerLagged — promoting a lagging replica of a live
// primary would fork the history.
func TestPromoteRefusesConnectedLaggedFollower(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 1, 2, 5)

	f := startFollower(t, t.TempDir(), addr)
	waitCaughtUp(t, p, f)

	// Stall the applier: ApplyTxns takes the follower's writer lock, so the
	// session records the primary's new durable LSN, then blocks mid-apply.
	f.mu.Lock()
	if _, err := p.Insert("Emp1", map[string]schema.Value{
		"name": str("ahead"), "age": num(50), "salary": num(9), "dept": ref(st.depts[0]),
	}); err != nil {
		f.mu.Unlock()
		t.Fatal(err)
	}
	waitCond(t, 15*time.Second, "follower to observe lag", func() bool {
		fs := f.ReplicationStatus().Follower
		return fs != nil && fs.Connected && fs.LagLSN > 0
	})
	// The primary's per-follower view must report the same lag, in LSNs and
	// in wall-clock milliseconds (time the oldest unacked record has waited).
	waitCond(t, 15*time.Second, "primary to report follower lag", func() bool {
		ps := p.ReplicationStatus().Primary
		if ps == nil {
			return false
		}
		for _, fi := range ps.Followers {
			if fi.LagLSN > 0 && fi.LagMs > 0 {
				return true
			}
		}
		return false
	})
	if err := f.Promote(); !errors.Is(err, repl.ErrFollowerLagged) {
		f.mu.Unlock()
		t.Fatalf("Promote on lagged connected follower: %v, want ErrFollowerLagged", err)
	}
	f.mu.Unlock()

	waitCaughtUp(t, p, f)
	if err := f.Promote(); err != nil {
		t.Fatalf("Promote on caught-up follower: %v", err)
	}
	if _, err := f.Insert("Emp1", map[string]schema.Value{
		"name": str("post-promote"), "age": num(1), "salary": num(1), "dept": ref(st.depts[0]),
	}); err != nil {
		t.Fatalf("promoted follower refused a write: %v", err)
	}
	if err := f.Promote(); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("second Promote: %v, want ErrNotFollower", err)
	}
}

// TestPrimarySurvivesFollowerDeath kill-9s a follower and checks the primary
// keeps committing and eventually drops the dead session.
func TestPrimarySurvivesFollowerDeath(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{Heartbeat: 50 * time.Millisecond, WriteTimeout: time.Second})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 1, 2, 5)

	f := startFollower(t, t.TempDir(), addr)
	waitCaughtUp(t, p, f)
	f.CrashStop()

	for i := 0; i < 20; i++ {
		if _, err := p.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("alone-%d", i)), "age": num(30), "salary": num(int64(i)), "dept": ref(st.depts[0]),
		}); err != nil {
			t.Fatalf("primary write %d failed after follower death: %v", i, err)
		}
	}
	waitCond(t, 15*time.Second, "primary to drop the dead follower", func() bool {
		return len(p.ReplicationStatus().Primary.Followers) == 0
	})
}

// TestReplicationFailoverTorture is the end-to-end failover drill: eight
// concurrent writers against a semi-synchronous primary, a follower attached
// mid-load (snapshot under load), the primary kill-9ed at a random commit
// offset, and the follower promoted. The promoted replica must hold every
// acknowledged commit, carry no taint, and verify clean.
func TestReplicationFailoverTorture(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{
		MinSyncFollowers: 1,
		SyncTimeout:      20 * time.Second,
	})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 2, 4, 0)
	if err := p.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}

	// killed is flipped BEFORE the primary dies: only commits acknowledged
	// strictly before the kill count toward the zero-loss check. (A commit
	// racing the kill may or may not survive; both outcomes are correct
	// because its caller never got a pre-kill acknowledgement.)
	var killed atomic.Bool
	var ackedMu sync.Mutex
	acked := map[string]bool{}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; ; s++ {
				name := fmt.Sprintf("w%d-s%d", w, s)
				_, err := p.Insert("Emp1", map[string]schema.Value{
					"name": str(name), "age": num(int64(20 + w)),
					"salary": num(int64(s)), "dept": ref(st.depts[(w+s)%len(st.depts)]),
				})
				if err != nil {
					return // the primary died under us
				}
				if !killed.Load() {
					ackedMu.Lock()
					acked[name] = true
					ackedMu.Unlock()
				}
			}
		}(w)
	}

	// Attach the follower while the writers are pounding: the snapshot is
	// taken under live load.
	time.Sleep(100 * time.Millisecond)
	f := startFollower(t, t.TempDir(), addr)
	waitCond(t, 15*time.Second, "follower session under load", func() bool {
		fs := f.ReplicationStatus().Follower
		return fs != nil && fs.Connected
	})
	time.Sleep(300 * time.Millisecond)

	killed.Store(true)
	p.CrashStop()
	wg.Wait()
	ackedMu.Lock()
	n := len(acked)
	ackedMu.Unlock()
	if n == 0 {
		t.Fatal("no commits were acknowledged before the kill; the drill tested nothing")
	}

	waitCond(t, 15*time.Second, "follower to notice the dead primary", func() bool {
		fs := f.ReplicationStatus().Follower
		return fs != nil && !fs.Connected
	})
	if err := f.Promote(); err != nil {
		t.Fatalf("Promote after primary death: %v", err)
	}

	verifyDB(t, f)
	res, _, err := f.Query(nil, Query{Set: "Emp1", Project: []string{"name"}})
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(res.Rows))
	for _, r := range res.Rows {
		have[fmt.Sprintf("%v", r.Values[0])] = true
	}
	ackedMu.Lock()
	defer ackedMu.Unlock()
	missing := 0
	for name := range acked {
		if !have[fmt.Sprintf("%v", str(name))] {
			missing++
			t.Errorf("acknowledged commit %s lost in failover", name)
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged commits missing on the promoted follower", missing, n)
	}
	if _, err := f.Insert("Emp1", map[string]schema.Value{
		"name": str("new-era"), "age": num(1), "salary": num(1), "dept": ref(st.depts[0]),
	}); err != nil {
		t.Fatalf("promoted follower refused the first new-era write: %v", err)
	}
}
