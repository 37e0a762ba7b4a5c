// Command walbench measures commit throughput and group-commit fsync
// batching, writing the results as JSON for tracking alongside the paper
// figures.
//
//	walbench -out BENCH_commit.json
//	walbench -disjoint -out BENCH_commit.json
//
// The default workload is concurrent one-shot inserts (each an implicit
// durable transaction) into a single set of a file-backed database, at 1, 4,
// and 16 concurrent writers. The quantities of interest are commits/s and
// fsyncs/commit: group commit is working when the latter falls well below 1
// as writers are added (acceptance: < 0.5 at 16 writers).
//
// -disjoint adds the multi-writer scaling sweep: N writers each own one of N
// unrelated sets, so their write footprints are disjoint singletons and the
// per-set lock manager lets them run the entire statement path — footprint
// computation, page capture, WAL append — concurrently, serializing only on
// the shared group-commit fsync. Rows are emitted per writer count
// (mode "wal-disjoint"); the acceptance target is >= 4x the single-writer
// commit rate at 16 writers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	fieldrepl "github.com/exodb/fieldrepl"
)

type result struct {
	Mode            string  `json:"mode"` // "wal" or "wal-disjoint"
	Writers         int     `json:"writers"`
	Seconds         float64 `json:"seconds"`
	Commits         int64   `json:"commits"`
	CommitsPerSec   float64 `json:"commits_per_sec"`
	NsPerCommit     int64   `json:"ns_per_commit"`
	Fsyncs          int64   `json:"fsyncs,omitempty"`
	FsyncsPerCommit float64 `json:"fsyncs_per_commit,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_commit.json", "write results to this file (- for stdout)")
	dur := flag.Duration("dur", time.Second, "measure duration per configuration")
	interval := flag.Duration("interval", 2*time.Millisecond, "group-commit interval for multi-writer configurations")
	disjoint := flag.Bool("disjoint", false, "also run the disjoint-set multi-writer scaling sweep")
	// The single-set sweep's 2ms window is tuned for writers that queue behind
	// one set lock anyway; with disjoint sets the statements themselves
	// overlap, so a long sleep only adds latency. A short window still
	// widens each fsync's batch.
	disjointIv := flag.Duration("disjoint-interval", 200*time.Microsecond, "group-commit interval for the disjoint sweep's multi-writer rows")
	flag.Parse()

	var results []result

	// WAL commits. The single writer runs with no commit interval (the
	// group-commit sleep only pays off with concurrent committers); the
	// multi-writer configurations use it to widen each fsync's batch.
	for _, w := range []int{1, 4, 16} {
		iv := *interval
		if w == 1 {
			iv = 0
		}
		r, err := run(w, iv, *dur)
		if err != nil {
			fatal(err)
		}
		report(r)
		results = append(results, r)
	}

	// Acceptance summary.
	fmt.Fprintf(os.Stderr, "walbench: fsyncs/commit at 16 writers = %.3f (acceptance: < 0.5)\n", results[2].FsyncsPerCommit)

	if *disjoint {
		var single result
		for _, w := range []int{1, 2, 4, 8, 16} {
			iv := *disjointIv
			if w == 1 {
				iv = 0
			}
			r, err := runDisjoint(w, iv, *dur)
			if err != nil {
				fatal(err)
			}
			report(r)
			results = append(results, r)
			if w == 1 {
				single = r
			}
		}
		last := results[len(results)-1]
		scale := last.CommitsPerSec / single.CommitsPerSec
		fmt.Fprintf(os.Stderr, "walbench: disjoint-writer scaling at 16 writers = %.2fx the single writer (acceptance: >= 4x)\n", scale)
	}

	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "walbench: wrote %s\n", *out)
}

// run opens a fresh database and drives writers concurrent insert loops for
// roughly dur, returning the measured configuration.
func run(writers int, interval time.Duration, dur time.Duration) (result, error) {
	dir, err := os.MkdirTemp("", "walbench-*")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	db, err := fieldrepl.Open(fieldrepl.Config{
		Dir:            dir,
		PoolPages:      4096,
		CommitInterval: interval,
	})
	if err != nil {
		return result{}, err
	}
	defer db.Close()

	if err := setup(db); err != nil {
		return result{}, err
	}
	return measure(db, "wal", writers, dur, func(w int) string { return "Emp" })
}

// runDisjoint opens a database with one set per writer, so the writers'
// footprints never overlap and the per-set lock manager runs them fully
// concurrently.
func runDisjoint(writers int, interval time.Duration, dur time.Duration) (result, error) {
	dir, err := os.MkdirTemp("", "walbench-*")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	db, err := fieldrepl.Open(fieldrepl.Config{
		Dir:            dir,
		PoolPages:      4096,
		PoolShards:     8,
		CommitInterval: interval,
	})
	if err != nil {
		return result{}, err
	}
	defer db.Close()

	if err := db.DefineType("EMP", []fieldrepl.Field{
		{Name: "name", Kind: fieldrepl.String},
		{Name: "salary", Kind: fieldrepl.Int},
	}); err != nil {
		return result{}, err
	}
	names := make([]string, writers)
	for w := 0; w < writers; w++ {
		names[w] = fmt.Sprintf("Emp%02d", w)
		if err := db.CreateSet(names[w], "EMP"); err != nil {
			return result{}, err
		}
	}
	return measure(db, "wal-disjoint", writers, dur, func(w int) string { return names[w] })
}

// measure drives writers concurrent insert loops for roughly dur; setFor
// maps each writer to its target set.
func measure(db *fieldrepl.DB, mode string, writers int, dur time.Duration, setFor func(int) string) (result, error) {
	base, _ := db.WALStats()

	var (
		commits  atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			set := setFor(w)
			for i := 0; time.Now().Before(deadline); i++ {
				_, err := db.Insert(set, fieldrepl.V{
					"name":   fieldrepl.S(fmt.Sprintf("w%d-%d", w, i)),
					"salary": fieldrepl.I(int64(i)),
				})
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				commits.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return result{}, err
	}

	n := commits.Load()
	if n == 0 {
		return result{}, fmt.Errorf("%s writers=%d: no commits completed", mode, writers)
	}
	r := result{
		Mode:          mode,
		Writers:       writers,
		Seconds:       elapsed.Seconds(),
		Commits:       n,
		CommitsPerSec: float64(n) / elapsed.Seconds(),
		// Per-writer latency: each writer completed n/writers commits in
		// elapsed wall time.
		NsPerCommit: elapsed.Nanoseconds() * int64(writers) / n,
	}
	if st, ok := db.WALStats(); ok {
		r.Fsyncs = st.Fsyncs - base.Fsyncs
		r.FsyncsPerCommit = float64(r.Fsyncs) / float64(st.Commits-base.Commits)
	}
	return r, nil
}

func setup(db *fieldrepl.DB) error {
	if err := db.DefineType("EMP", []fieldrepl.Field{
		{Name: "name", Kind: fieldrepl.String},
		{Name: "salary", Kind: fieldrepl.Int},
	}); err != nil {
		return err
	}
	return db.CreateSet("Emp", "EMP")
}

func report(r result) {
	fmt.Fprintf(os.Stderr, "walbench: %-12s writers=%-2d  %8.0f commits/s  %10d ns/commit  %.3f fsyncs/commit\n",
		r.Mode, r.Writers, r.CommitsPerSec, r.NsPerCommit, r.FsyncsPerCommit)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "walbench: %v\n", err)
	os.Exit(1)
}
