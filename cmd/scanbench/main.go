// Command scanbench measures full heap-scan throughput across a matrix of
// buffer-pool shard counts and scan worker counts, writing the results as
// JSON (one object per configuration) for tracking alongside the paper
// figures.
//
//	scanbench -out BENCH_scan.json
//
// The workload is a memory-backed heap file of at least -pages pages read
// through a store wrapper that charges a fixed per-I/O latency (emulating a
// device, -latency). The pool holds a shard's lock across a miss read, so
// with one shard every worker's misses serialize behind a single in-flight
// I/O, while sharded configurations overlap misses on different shards —
// exactly the effect the sharding exists to produce. Worker speedup therefore
// comes from overlapped I/O latency, not from CPU parallelism, and the
// benchmark is meaningful even on a single-core host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

type result struct {
	Shards      int     `json:"shards"`
	Workers     int     `json:"workers"`
	Pages       uint32  `json:"pages"`
	Records     int     `json:"records"`
	NsPerOp     int64   `json:"ns_per_op"`
	PagesPerSec float64 `json:"pages_per_sec"`
}

// slowStore wraps a Store, charging a fixed latency per read call — one
// sleep per ReadPage and one per ReadPages batch, the way a device charges
// one seek per I/O regardless of transfer size. Writes are not slowed; the
// scan workload never writes.
type slowStore struct {
	pagefile.Store
	latency time.Duration
}

func (s *slowStore) ReadPage(pid pagefile.PageID, buf *pagefile.Page) error {
	time.Sleep(s.latency)
	return s.Store.ReadPage(pid, buf)
}

func (s *slowStore) ReadPages(f pagefile.FileID, start uint32, bufs []pagefile.Page) error {
	time.Sleep(s.latency)
	return s.Store.ReadPages(f, start, bufs)
}

func main() {
	out := flag.String("out", "BENCH_scan.json", "write results to this file (- for stdout)")
	pages := flag.Uint("pages", 10000, "minimum heap file size in pages")
	pool := flag.Int("pool", 2048, "buffer pool size in pages")
	iters := flag.Int("iters", 1, "measured scans per configuration (best is kept; timing is sleep-dominated and stable)")
	latency := flag.Duration("latency", 120*time.Microsecond, "simulated device latency per read I/O")
	flag.Parse()

	mem := pagefile.NewMemStore()
	fid, nrec, err := buildHeap(mem, uint32(*pages))
	if err != nil {
		fatal(err)
	}
	store := &slowStore{Store: mem, latency: *latency}
	npages, err := store.NumPages(fid)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "scanbench: %d records on %d pages, pool %d frames, %v/read\n", nrec, npages, *pool, *latency)

	// One single-shard baseline (the historical pool), then worker scaling on
	// the sharded pool. Multi-worker runs against a single shard are omitted:
	// the shard lock is held across miss reads, so they only measure lock
	// convoy, not scan throughput.
	configs := []struct{ shards, workers int }{
		{1, 1}, {8, 1}, {8, 2}, {8, 4}, {8, 8},
	}
	var results []result
	for _, c := range configs {
		r, err := measure(store, fid, *pool, c.shards, c.workers, *iters)
		if err != nil {
			fatal(err)
		}
		if r.Records != nrec {
			fatal(fmt.Errorf("shards=%d workers=%d visited %d records, want %d", c.shards, c.workers, r.Records, nrec))
		}
		fmt.Fprintf(os.Stderr, "scanbench: shards=%d workers=%d  %12d ns/op  %10.0f pages/s\n",
			c.shards, c.workers, r.NsPerOp, r.PagesPerSec)
		results = append(results, r)
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
	fmt.Fprintf(os.Stderr, "scanbench: wrote %s\n", *out)
}

// buildHeap fills a fresh heap file until it spans at least minPages pages,
// returning the file id and the record count.
func buildHeap(store pagefile.Store, minPages uint32) (pagefile.FileID, int, error) {
	pool := buffer.New(store, 256)
	f, err := heap.Create(pool, "scanbench")
	if err != nil {
		return 0, 0, err
	}
	payload := make([]byte, 120)
	nrec := 0
	for {
		n, err := f.NumPages()
		if err != nil {
			return 0, 0, err
		}
		if n >= minPages {
			break
		}
		for i := 0; i < 256; i++ {
			for j := range payload {
				payload[j] = byte(nrec + j)
			}
			if _, err := f.Insert(payload); err != nil {
				return 0, 0, err
			}
			nrec++
		}
	}
	if err := pool.FlushAll(); err != nil {
		return 0, 0, err
	}
	return f.ID(), nrec, nil
}

// measure times full scans of the file under one pool configuration and
// keeps the best of iters runs (after one warm-up scan).
func measure(store pagefile.Store, fid pagefile.FileID, frames, shards, workers, iters int) (result, error) {
	pool := buffer.NewSharded(store, frames, shards)
	f, err := heap.Open(pool, fid)
	if err != nil {
		return result{}, err
	}
	npages, err := f.NumPages()
	if err != nil {
		return result{}, err
	}
	scan := func() (int, time.Duration, error) {
		// The callback mimics predicate evaluation: touch every payload
		// byte. Counters are atomic so the same callback serves both the
		// sequential and the parallel scan.
		var seen, sum atomic.Int64
		count := func(oid pagefile.OID, payload []byte) error {
			var s int64
			for _, b := range payload {
				s += int64(b)
			}
			sum.Add(s)
			seen.Add(1)
			return nil
		}
		start := time.Now()
		err := f.ScanParallel(workers, func() func(pagefile.OID, []byte) error { return count })
		d := time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		return int(seen.Load()), d, nil
	}
	// No warm-up: the pool is smaller than the file, so every scan is cold
	// and timing is dominated by the (deterministic) per-read latency.
	best := time.Duration(0)
	records := 0
	for i := 0; i < iters; i++ {
		seen, d, err := scan()
		if err != nil {
			return result{}, err
		}
		records = seen
		if best == 0 || d < best {
			best = d
		}
	}
	return result{
		Shards:      shards,
		Workers:     workers,
		Pages:       npages,
		Records:     records,
		NsPerOp:     best.Nanoseconds(),
		PagesPerSec: float64(npages) / best.Seconds(),
	}, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "scanbench: %v\n", err)
	os.Exit(1)
}
