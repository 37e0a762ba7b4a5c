// Command extradb runs scripts in the EXTRA-style surface language. With
// -dir the database persists: a directory that already holds a database is
// reopened, so state accumulates across invocations.
//
//	extradb script.extra [more.extra ...]    # run script files in order
//	extradb -                                 # read a script from stdin
//	extradb -dir ./data script.extra          # persist (and reopen) under ./data
//	extradb -serve :7070 -dir ./data          # serve statements and /metrics to network clients
//	extradb -dir ./data -ship-listen :7071    # ship the WAL to read replicas
//	extradb -dir ./rep -follow host:7071      # run as a read-only follower
//
// Retrieve statements print aligned tables; other statements print one-line
// summaries. With -serve, -ship-listen, or -follow the process stays up
// after the scripts finish — serving clients and telemetry, shipping the
// log, or replaying the primary's stream — until interrupted; SIGINT/SIGTERM
// shut the servers down and close the database cleanly (deferred closes run
// on every exit path, so the store is never abandoned with dirty state).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/exodb/fieldrepl"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "extradb: %v\n", err)
		os.Exit(1)
	}
}

// run owns the whole lifecycle so that every exit path — including errors —
// unwinds through the deferred Close calls. (An os.Exit inside would skip
// them, leaving a -dir database without its clean shutdown.)
func run() error {
	dir := flag.String("dir", "", "store page files under this directory (default: in-memory)")
	pool := flag.Int("pool", 1024, "buffer pool size in pages")
	showIO := flag.Bool("io", false, "print page I/O after each statement")
	workers := flag.Int("workers", 1, "goroutines for non-indexed scan predicate evaluation (1 = sequential)")
	shards := flag.Int("shards", 1, "buffer pool lock shards")
	explain := flag.Bool("explain", false, "print each statement's plan (chosen operators, costed alternatives) and per-operation I/O trace")
	metrics := flag.Bool("metrics", false, "print the observability snapshot as JSON after all scripts")
	advise := flag.Bool("advise", false, "print the workload advisor's report as JSON after all scripts")
	slowMS := flag.Int("slowms", 0, "log operations slower than this many milliseconds to stderr (0 = off)")
	serve := flag.String("serve", "", "serve surface-language statements (native protocol + JSON HTTP) and /metrics, /debug/vars, /debug/traces, /debug/pprof on this address and stay up")
	maxConns := flag.Int("maxconns", 0, "with -serve: cap concurrent client connections (0 = default 1024)")
	shipListen := flag.String("ship-listen", "", "ship the WAL to follower replicas connecting on this address (requires -dir)")
	follow := flag.String("follow", "", "open as a read-only follower replicating from this primary address (requires -dir)")
	syncFollowers := flag.Int("sync-followers", 0, "with -ship-listen: commits wait for this many follower acks (0 = asynchronous)")
	mutexProfile := flag.Int("mutexprofile", 0, "sample 1/N mutex contention events for /debug/pprof/mutex (0 = off; try 5 when hunting lock contention)")
	flag.Parse()
	if *mutexProfile > 0 {
		// Exposes engine-lock and per-set-lock contention through the pprof
		// mutex profile (pair with -serve to scrape it).
		runtime.SetMutexProfileFraction(*mutexProfile)
	}
	stayUp := *serve != "" || *shipListen != "" || *follow != ""
	if flag.NArg() == 0 && !stayUp {
		fmt.Fprintln(os.Stderr, "usage: extradb [-dir DIR] [-io] [-explain] [-metrics] [-advise] [-slowms N] [-serve ADDR] [-ship-listen ADDR] [-follow ADDR] [-workers N] [-shards N] script.extra ... (or - for stdin)")
		os.Exit(2)
	}

	// The signal context is the process's lifetime: SIGINT/SIGTERM cancel it,
	// and everything below unwinds through the deferred closes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := fieldrepl.Config{
		Dir: *dir, PoolPages: *pool,
		ScanWorkers: *workers, PoolShards: *shards,
	}
	var db *fieldrepl.DB
	var err error
	if *follow != "" {
		db, err = fieldrepl.OpenFollower(cfg, *follow, fieldrepl.FollowerConfig{})
	} else {
		db, err = fieldrepl.Open(cfg)
	}
	if err != nil {
		return err
	}
	defer db.Close()
	if *slowMS > 0 {
		db.SetSlowQueryLog(time.Duration(*slowMS)*time.Millisecond, func(r fieldrepl.TraceRecord) {
			fmt.Fprintf(os.Stderr, "-- slow: #%d %s origin=%s set=%s plan=%s wall=%v io=%d pages\n",
				r.ID, r.Kind, r.Origin, r.Set, r.Plan, r.Wall, r.StoreReads+r.StoreWrites)
		})
	}
	if *shipListen != "" {
		addr, err := db.ServeReplication(*shipListen, fieldrepl.ReplicationConfig{MinSyncFollowers: *syncFollowers})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "-- replication: shipping WAL on %s\n", addr)
	}
	if *follow != "" {
		fmt.Fprintf(os.Stderr, "-- replication: following %s (read-only until promoted)\n", *follow)
	}
	var qsrv *fieldrepl.Server
	if *serve != "" {
		qsrv, err = db.Serve(*serve, fieldrepl.ServerConfig{MaxConns: *maxConns})
		if err != nil {
			return err
		}
		defer qsrv.Close()
		fmt.Fprintf(os.Stderr, "-- serving: %s (native protocol, POST /exec, telemetry at http://%s/metrics)\n", qsrv.Addr(), qsrv.Addr())
	}
	// seen tracks trace ids already printed by -explain. The recent ring is in
	// completion order, not id order (ids are issued at operation start), so a
	// "last printed id" watermark would drop any trace that finished after a
	// later-started one; comparing against the previous round's id set prints
	// each trace exactly once. Bounded by the ring capacity.
	seen := map[uint64]bool{}

	for _, arg := range flag.Args() {
		var src []byte
		if arg == "-" {
			src, err = io.ReadAll(os.Stdin)
		} else {
			src, err = os.ReadFile(arg)
		}
		if err != nil {
			return err
		}
		before := db.IO()
		outs, err := db.ExecCtx(ctx, string(src))
		for _, o := range outs {
			if len(o.Columns) > 0 {
				fmt.Println(o.Table())
			} else {
				fmt.Println(o.Message)
			}
			// Explain statements always carry a plan; with -explain every
			// planned statement prints its full decision — the chosen operator
			// pipeline and each costed-but-rejected alternative.
			if o.Plan != "" && (*explain || strings.HasPrefix(o.Message, "explained")) {
				fmt.Println(o.Plan)
			}
		}
		if err != nil {
			return err
		}
		if *showIO {
			fmt.Printf("-- I/O: %v\n", db.IO().Sub(before))
		}
		if *explain {
			next := map[uint64]bool{}
			for _, r := range db.RecentTraces() {
				next[r.ID] = true
				if seen[r.ID] {
					continue
				}
				fmt.Printf("-- trace #%d %s set=%s plan=%s wall=%v reads=%d writes=%d hits=%d misses=%d\n",
					r.ID, r.Kind, r.Set, r.Plan, r.Wall, r.StoreReads, r.StoreWrites, r.Hits, r.Misses)
			}
			seen = next
		}
	}
	if *metrics {
		js, err := db.MetricsJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(js))
	}
	if *advise {
		js, err := db.AdviseJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(js))
	}
	if stayUp {
		<-ctx.Done()
		stop() // restore default handling: a second signal kills immediately
		fmt.Fprintln(os.Stderr, "-- shutting down")
		if qsrv != nil {
			_ = qsrv.Close()
		}
	}
	return nil
}
