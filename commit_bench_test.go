package fieldrepl

// Durable-commit and replication benchmarks (run with
// `go test -bench 'Commit|ReplicationLag' -run '^$'`):
//
//	BenchmarkCommit/writers=N           — N writers inserting into one set:
//	                                      commits/s and fsyncs/commit, the
//	                                      group-commit batching (< 0.5 fsyncs
//	                                      per commit at 16 writers)
//	BenchmarkCommit/disjoint/writers=N  — one set per writer, so footprints
//	                                      never overlap and only the fsync is
//	                                      shared (>= 4x one writer's rate at 16)
//	BenchmarkReplicationLag/writers=N   — a follower on the same host applying
//	                                      the primary's log: lag p50/p99 in
//	                                      LSNs and in ms to visibility
//
// An op is one committed insert, so ns/op is wall time per commit across all
// writers.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openEMP opens a logged database in a fresh directory with one EMP(name,
// salary) set per name in sets.
func openEMP(b *testing.B, cfg Config, sets ...string) *DB {
	b.Helper()
	cfg.Dir = b.TempDir()
	db, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := db.DefineType("EMP", []Field{{Name: "name", Kind: String}, {Name: "salary", Kind: Int}}); err != nil {
		b.Fatal(err)
	}
	for _, s := range sets {
		if err := db.CreateSet(s, "EMP"); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// insertEMP has writers goroutines insert n EMP objects in all, writer w into
// set setFor(w), and returns once every insert has committed.
func insertEMP(b *testing.B, db *DB, writers, n int, setFor func(w int) string) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := next.Add(1); i <= int64(n); i = next.Add(1) {
				if _, err := db.Insert(setFor(w), V{"name": S(fmt.Sprintf("w%d-%d", w, i)), "salary": I(i)}); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkCommit measures durable one-insert commits. A single writer
// forces the log at once; more writers wait a group-commit interval first, so
// that each fsync carries a wider batch: 2ms where they queue behind one
// set's lock anyway, 200µs where their statements overlap on disjoint sets.
func BenchmarkCommit(b *testing.B) {
	run := func(b *testing.B, cfg Config, writers int, setFor func(int) string, sets ...string) {
		db := openEMP(b, cfg, sets...)
		base, _ := db.WALStats()
		b.ResetTimer()
		start := time.Now()
		insertEMP(b, db, writers, b.N, setFor)
		elapsed := time.Since(start)
		st, _ := db.WALStats()
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "commits/s")
		b.ReportMetric(float64(st.Fsyncs-base.Fsyncs)/float64(st.Commits-base.Commits), "fsyncs/commit")
	}
	interval := func(writers int, d time.Duration) time.Duration {
		if writers == 1 {
			return 0
		}
		return d
	}
	for _, w := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", w), func(b *testing.B) {
			cfg := Config{PoolPages: 4096, CommitInterval: interval(w, 2*time.Millisecond)}
			run(b, cfg, w, func(int) string { return "Emp" }, "Emp")
		})
	}
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("disjoint/writers=%d", w), func(b *testing.B) {
			sets := make([]string, w)
			for i := range sets {
				sets[i] = fmt.Sprintf("Emp%02d", i)
			}
			cfg := Config{PoolPages: 4096, PoolShards: 8, CommitInterval: interval(w, 200*time.Microsecond)}
			run(b, cfg, w, func(i int) string { return sets[i] }, sets...)
		})
	}
}

// BenchmarkReplicationLag ships a primary's log to one follower on the same
// host while writers insert, sampling the follower's lag every 2ms: in LSNs,
// the primary's durable LSN minus the follower's applied one; in ms, how long
// the follower takes to reach the durable LSN the primary just reported. The
// follower's initial snapshot is absorbed before the clock starts.
func BenchmarkReplicationLag(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("writers=%d", w), func(b *testing.B) {
			p := openEMP(b, Config{PoolPages: 4096}, "Emp")
			addr, err := p.ServeReplication("127.0.0.1:0", ReplicationConfig{})
			if err != nil {
				b.Fatal(err)
			}
			f, err := OpenFollower(Config{Dir: b.TempDir(), PoolPages: 4096}, addr, FollowerConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { f.Close() })
			applied := func() uint64 { return f.ReplicationStatus().Follower.AppliedLSN }
			catchUp := func(lsn uint64) time.Duration {
				start := time.Now()
				for applied() < lsn && time.Since(start) < 5*time.Second {
					time.Sleep(100 * time.Microsecond)
				}
				return time.Since(start)
			}
			if _, err := p.Insert("Emp", V{"name": S("warmup"), "salary": I(0)}); err != nil {
				b.Fatal(err)
			}
			if catchUp(p.ReplicationStatus().Primary.DurableLSN) >= 5*time.Second {
				b.Fatal("follower never caught up with the warm-up insert")
			}

			b.ResetTimer()
			done := make(chan struct{})
			go func() { insertEMP(b, p, w, b.N, func(int) string { return "Emp" }); close(done) }()
			var lagLSN, lagMs []float64
			for sampling := true; sampling; {
				select {
				case <-done:
					sampling = false
				case <-time.After(2 * time.Millisecond):
				}
				durable := p.ReplicationStatus().Primary.DurableLSN
				if a := applied(); durable >= a {
					lagLSN = append(lagLSN, float64(durable-a))
				}
				lagMs = append(lagMs, float64(catchUp(durable).Microseconds())/1e3)
			}
			b.StopTimer()
			for _, m := range []struct {
				xs   []float64
				unit string
			}{{lagLSN, "lag-lsn"}, {lagMs, "lag-ms"}} {
				sort.Float64s(m.xs)
				b.ReportMetric(m.xs[len(m.xs)/2], m.unit+"-p50")
				b.ReportMetric(m.xs[(len(m.xs)-1)*99/100], m.unit+"-p99")
			}
		})
	}
}
