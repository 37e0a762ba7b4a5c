package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/exodb/fieldrepl"
	"github.com/exodb/fieldrepl/client"
)

const (
	// runGuard fails a run that would otherwise hang.
	runGuard = 120 * time.Second
	// probeWrites is how many of each client's last acknowledged writes the
	// durability check reads back after the crash.
	probeWrites = 200
	maxErrs     = 5 // error texts kept per run
)

// executor sends one operation to the database and renders the answer as
// strings, the form a network client receives.
type executor interface {
	do(ctx context.Context, o *op) (rows [][]string, n int, err error)
	// origin is the session label the engine stamps on this executor's
	// trace records; empty for direct API calls.
	origin() string
}

type embedded struct{ db *fieldrepl.DB }

func (e embedded) origin() string { return "" }

func (e embedded) do(ctx context.Context, o *op) ([][]string, int, error) {
	if o.write {
		n, err := e.db.UpdateWhereCtx(ctx, o.set, o.where, o.vals)
		return nil, n, err
	}
	res, err := e.db.QueryCtx(ctx, o.q)
	if err != nil {
		return nil, 0, err
	}
	rows := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r.Values))
		for j, v := range r.Values {
			if v.Kind() == fieldrepl.Int {
				cells[j] = strconv.FormatInt(v.Int(), 10)
			} else {
				cells[j] = v.Str()
			}
		}
		rows[i] = cells
	}
	return rows, 0, nil
}

type served struct{ c *client.Client }

func (s served) origin() string { return s.c.Origin() }

func (s served) do(ctx context.Context, o *op) ([][]string, int, error) {
	res, err := s.c.Exec(ctx, o.stmt)
	if err != nil {
		return nil, 0, err
	}
	if len(res) != 1 {
		return nil, 0, fmt.Errorf("got %d statement results, want 1", len(res))
	}
	if !o.write {
		return res[0].Rows, 0, nil
	}
	var n int
	if _, err := fmt.Sscanf(res[0].Message, "replaced %d objects", &n); err != nil {
		return nil, 0, fmt.Errorf("unexpected reply %q", res[0].Message)
	}
	return nil, n, nil
}

// clientState is one closed-loop caller: its own seeded stream, connection
// and samples.
type clientState struct {
	id         int
	rng        *rand.Rand
	exec       executor
	seq        int
	lastWrites []op
	reads      []time.Duration
	writes     []time.Duration
}

// clientSeed derives the seed of client i's op stream from the run's seed.
func clientSeed(seed int64, i int) int64 { return seed*7919 + int64(i) + 1 }

// mark is the state of the counters when a checkpoint finished.
type mark struct {
	ops   int64
	pages int64
}

// env is one set-up database with its clients.
type env struct {
	spec    *workloadSpec
	sc      scale
	cfg     fieldrepl.Config
	db      *fieldrepl.DB
	ds      dataset
	srv     *fieldrepl.Server
	clients []*clientState
	tr      *tracer // non-nil during a traced window

	// Both count since set-up: every CkptEvery-th acknowledged write
	// checkpoints, and marks record opsDone.
	writes  atomic.Int64
	opsDone atomic.Int64

	mu     sync.Mutex
	marks  []mark
	ckpts  []time.Duration
	failed int
	errs   []string
}

// fail counts one operation or check that failed, was refused or answered
// wrongly.
func (e *env) fail(what string, err error) {
	e.mu.Lock()
	e.failed++
	if len(e.errs) < maxErrs {
		e.errs = append(e.errs, fmt.Sprintf("%s: %s: %v", e.spec.Name, what, err))
	}
	e.mu.Unlock()
}

// setUp creates a file-backed database in a fresh directory under work,
// loads the workload's data, checkpoints, connects the clients and runs the
// warm-up. The returned duration is setup_s.
func setUp(spec *workloadSpec, sc scale, seed int64, work string) (*env, time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(work, "db-")
	if err != nil {
		return nil, 0, err
	}
	e := &env{spec: spec, sc: sc, ds: spec.new(sc),
		cfg: fieldrepl.Config{Dir: dir, PoolPages: spec.PoolPages, PoolShards: 1, ScanWorkers: 1}}
	if e.db, err = fieldrepl.Open(e.cfg); err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	if err := e.ds.load(e.db, rand.New(rand.NewSource(seed))); err != nil {
		e.discard()
		return nil, 0, fmt.Errorf("%s: load: %w", spec.Name, err)
	}
	if err := e.db.Sync(); err != nil {
		e.discard()
		return nil, 0, err
	}
	if spec.Served {
		if e.srv, err = e.db.Serve("127.0.0.1:0", fieldrepl.ServerConfig{}); err != nil {
			e.discard()
			return nil, 0, err
		}
	}
	for i := 0; i < spec.Clients; i++ {
		c := &clientState{id: i, rng: rand.New(rand.NewSource(clientSeed(seed, i))), exec: embedded{e.db}}
		if spec.Served {
			conn, err := client.Dial(e.srv.Addr(), client.Config{})
			if err != nil {
				e.discard()
				return nil, 0, err
			}
			c.exec = served{conn}
		}
		e.clients = append(e.clients, c)
	}
	warm := spec.Warm
	if sc.Ops > 0 && warm > sc.Ops {
		warm = sc.Ops
	}
	if w := e.measure(0, warm); w.failed > 0 {
		e.discard()
		return nil, 0, fmt.Errorf("warm-up failed: %v", e.errs)
	}
	return e, time.Since(start), nil
}

// closeClients ends the network sessions and the server.
func (e *env) closeClients() {
	for _, c := range e.clients {
		if s, ok := c.exec.(served); ok {
			s.c.Close()
		}
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
}

// discard drops the database and its directory.
func (e *env) discard() {
	e.closeClients()
	if e.db != nil {
		e.db.Close()
	}
	os.RemoveAll(e.cfg.Dir)
}

// window is what one measured stretch of operations produced.
type window struct {
	ops, failed   int
	elapsed       time.Duration
	reads, writes []time.Duration
	io            fieldrepl.IOStats
	cpu           time.Duration
	allocBytes    uint64
	gcCycles      uint32
	heapLive      uint64 // heap in use after the collection that precedes the window
	ckpts         []time.Duration
	wal           fieldrepl.WALStats
	evictions     int64
}

// evictions reads the buffer pool's eviction counter, which only the metrics
// snapshot exposes.
func (e *env) evictions() int64 {
	var m struct {
		Pool struct{ Evictions int64 } `json:"pool"`
	}
	if raw, err := e.db.MetricsJSON(); err == nil {
		_ = json.Unmarshal(raw, &m) // a field the engine renames reads as 0 and shows in the layer block
	}
	return m.Pool.Evictions
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs every client in a closed loop until the wall-clock budget is
// spent or, when maxOps is positive, until each client has sent maxOps
// operations. Every answer is checked; every CkptEvery-th acknowledged write
// is followed by an explicit checkpoint, whose cost is part of the window
// but of no operation's latency.
func (e *env) measure(budget time.Duration, maxOps int) window {
	for _, c := range e.clients {
		c.reads, c.writes = nil, nil
	}
	ckpt0 := len(e.ckpts)
	failed0 := e.failed
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wal0, _ := e.db.WALStats()
	evict0 := e.evictions()
	io0 := e.db.IO()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(budget)
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runGuard))
	defer cancel()

	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			for n := 0; ; n++ {
				if maxOps > 0 && n >= maxOps || maxOps == 0 && !time.Now().Before(deadline) || ctx.Err() != nil {
					return
				}
				e.step(ctx, c)
			}
		}(c)
	}
	wg.Wait()

	w := window{elapsed: time.Since(start), cpu: cpuTime() - cpu0, io: e.db.IO().Sub(io0), ckpts: e.ckpts[ckpt0:]}
	runtime.ReadMemStats(&ms1)
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.heapLive = ms0.HeapAlloc
	wal1, _ := e.db.WALStats()
	w.wal = fieldrepl.WALStats{Commits: wal1.Commits - wal0.Commits, Fsyncs: wal1.Fsyncs - wal0.Fsyncs, Bytes: wal1.Bytes - wal0.Bytes}
	w.evictions = e.evictions() - evict0
	for _, c := range e.clients {
		w.reads = append(w.reads, c.reads...)
		w.writes = append(w.writes, c.writes...)
	}
	w.ops = len(w.reads) + len(w.writes)
	if ctx.Err() != nil {
		e.fail("run", fmt.Errorf("exceeded the %v guard", runGuard))
	}
	w.failed = e.failed - failed0
	sort.Slice(w.reads, func(i, j int) bool { return w.reads[i] < w.reads[j] })
	sort.Slice(w.writes, func(i, j int) bool { return w.writes[i] < w.writes[j] })
	return w
}

// merge adds up the counts of windows; latencies stay with their window.
func merge(ws []window) window {
	var w window
	for _, s := range ws {
		w.ops += s.ops
		w.failed += s.failed
		w.elapsed += s.elapsed
		w.allocBytes += s.allocBytes
		w.io.Reads += s.io.Reads
		w.io.Writes += s.io.Writes
		w.wal.Commits += s.wal.Commits
		w.wal.Fsyncs += s.wal.Fsyncs
		w.wal.Bytes += s.wal.Bytes
		w.evictions += s.evictions
		w.ckpts = append(w.ckpts, s.ckpts...)
	}
	return w
}

// pagesPerOp is store page reads + writes per operation over the windows
// measured since the env held mark0 marks. It is taken between the first and
// the last checkpoint of that stretch, so that a checkpoint's burst of
// write-backs is never counted against a partial cycle; over all of io and
// ops when the stretch held fewer than two checkpoints.
func (e *env) pagesPerOp(mark0 int, io fieldrepl.IOStats, ops int) float64 {
	if m := e.marks[mark0:]; len(m) >= 2 && m[len(m)-1].ops > m[0].ops {
		return float64(m[len(m)-1].pages-m[0].pages) / float64(m[len(m)-1].ops-m[0].ops)
	}
	return share(float64(io.Total()), float64(ops))
}

// step generates, sends, times and checks one operation of client c.
func (e *env) step(ctx context.Context, c *clientState) {
	// Writes are spread evenly: operation n writes when the running total
	// n*PUpdate crosses an integer, so every stretch of the stream has the
	// stated write share exactly.
	p := e.spec.PUpdate
	write := math.Floor(float64(c.seq+1)*p) > math.Floor(float64(c.seq)*p)
	o := e.ds.next(c.rng, c.id, len(e.clients), c.seq, write)
	c.seq++
	var sp *opSpan
	if e.tr != nil {
		sp = e.tr.begin(c.id, &o)
	}
	t := time.Now()
	rows, n, err := c.exec.do(ctx, &o)
	lat := time.Since(t)
	if err == nil {
		err = o.check(rows, n)
	}
	if e.tr != nil {
		e.tr.end(sp, t, lat, c.exec.origin())
	}
	if err != nil {
		e.fail(o.stmt, err)
	}
	e.opsDone.Add(1)
	if !write {
		c.reads = append(c.reads, lat)
		return
	}
	c.writes = append(c.writes, lat)
	if len(c.lastWrites) == probeWrites {
		c.lastWrites = c.lastWrites[1:]
	}
	c.lastWrites = append(c.lastWrites, o)
	if e.writes.Add(1)%int64(e.spec.CkptEvery) == 0 {
		e.checkpoint(c)
	}
}

func (e *env) checkpoint(c *clientState) {
	t := time.Now()
	err := e.db.Sync()
	d := time.Since(t)
	if e.tr != nil {
		e.tr.checkpoint(c.id, t, d)
	}
	if err != nil {
		e.fail("checkpoint", err)
		return
	}
	m := mark{ops: e.opsDone.Load(), pages: e.db.IO().Total()}
	e.mu.Lock()
	e.marks = append(e.marks, m)
	e.ckpts = append(e.ckpts, d)
	e.mu.Unlock()
}

// closing is what the checks after the measured window found.
type closing struct {
	attempted, failed int
	spaceAmp          float64
	dataPages         int64
}

// finish runs the checks that sit outside the timed window and removes the
// database: the replication invariant must hold; then the process "crashes"
// (handles closed, nothing flushed), the directory is reopened, the log tail
// since the last checkpoint is replayed, and every client's last
// acknowledged writes must be readable and the invariant must hold again
// without Repair. Space is measured after a final checkpoint.
func (e *env) finish() closing {
	var cl closing
	failed0 := e.failed
	verify := func(what string) {
		cl.attempted++
		if errs := e.db.VerifyReplication(); len(errs) > 0 {
			e.fail(what, fmt.Errorf("%d violations, first: %v", len(errs), errs[0]))
		}
	}
	verify("VerifyReplication")
	e.closeClients()
	e.db.CrashStop()
	var err error
	if e.db, err = fieldrepl.Open(e.cfg); err != nil {
		cl.attempted++
		e.fail("reopen after crash", err)
		e.db = nil
		os.RemoveAll(e.cfg.Dir)
		cl.failed = e.failed - failed0
		return cl
	}
	probe := embedded{e.db}
	for _, c := range e.clients {
		for _, w := range c.lastWrites {
			cl.attempted++
			p := e.ds.probe(w)
			rows, n, err := probe.do(context.Background(), &p)
			if err == nil {
				err = p.check(rows, n)
			}
			if err != nil {
				e.fail("after crash: "+w.stmt, err)
			}
		}
	}
	verify("VerifyReplication after crash")
	if err := e.db.Sync(); err != nil {
		cl.attempted++
		e.fail("final checkpoint", err)
	}
	var bytes int64
	_ = filepath.Walk(e.cfg.Dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			bytes += fi.Size()
		}
		return nil
	})
	cl.spaceAmp = float64(bytes) / float64(e.ds.userBytes())
	cl.dataPages = bytes / 4096
	cl.failed = e.failed - failed0
	e.discard()
	return cl
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
