package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/exodb/fieldrepl"
)

// span is one interval of the traced run. Spans of one operation share Op;
// Parent is the span that caused this one (0 for the operation itself).
// Times are nanoseconds since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Client int    `json:"client"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Engine spans carry the counters of their trace record.
	Rec *fieldrepl.TraceRecord `json:"engine,omitempty"`
}

// opSpan is an operation in flight.
type opSpan struct {
	id     uint64
	client int
	write  bool
	name   string
	start  time.Time
}

// opTrace is what the tracer keeps per finished operation for the layer
// metrics: the client-observed latency and the sums over its engine records.
type opTrace struct {
	write        bool
	lat, wall    time.Duration
	pages, rows  int64
	hits, misses int64
	lock, logw   int64
	rstall       int64
	wstall       int64
	pageErr      float64 // |predicted - observed| / observed; NaN when unplanned
}

// tracer collects every engine trace record through the slow-query sink and
// wraps every public call in bench-side spans. Everything stays in memory
// until write. Engine records are joined to the call that caused them by the
// session origin they carry and by order: each client is a closed loop, so
// the records of its origin that completed since its previous call belong to
// this one.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	nextID   uint64
	spans    []span
	ops      []opTrace
	byOrigin map[string][]fieldrepl.TraceRecord
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byOrigin: map[string][]fieldrepl.TraceRecord{}}
}

// start installs the sink: from here on every engine operation, whatever it
// took, hands its trace record over.
func (tr *tracer) start(db *fieldrepl.DB) {
	db.SetSlowQueryLog(time.Nanosecond, func(r fieldrepl.TraceRecord) {
		tr.mu.Lock()
		tr.byOrigin[r.Origin] = append(tr.byOrigin[r.Origin], r)
		tr.mu.Unlock()
	})
}

func (tr *tracer) begin(client int, o *op) *opSpan {
	name := "read"
	if o.write {
		name = "write"
	}
	tr.mu.Lock()
	tr.nextID++
	id := tr.nextID
	tr.mu.Unlock()
	return &opSpan{id: id, client: client, write: o.write, name: name, start: time.Now()}
}

// end closes the operation: one span for the operation (generation, call
// and answer check), one for the public call, one per engine record.
func (tr *tracer) end(sp *opSpan, callStart time.Time, lat time.Duration, origin string) {
	now := time.Now()
	call := "DB.QueryCtx"
	switch {
	case origin != "":
		call = "client.Exec"
	case sp.write:
		call = "DB.UpdateWhereCtx"
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	recs := tr.byOrigin[origin]
	tr.byOrigin[origin] = nil
	tr.spans = append(tr.spans, span{ID: sp.id, Op: sp.id, Name: sp.name, Client: sp.client,
		Start: sp.start.Sub(tr.t0).Nanoseconds(), End: now.Sub(tr.t0).Nanoseconds()})
	tr.nextID++
	callID := tr.nextID
	tr.spans = append(tr.spans, span{ID: callID, Parent: sp.id, Op: sp.id, Name: call, Client: sp.client,
		Start: callStart.Sub(tr.t0).Nanoseconds(), End: callStart.Add(lat).Sub(tr.t0).Nanoseconds()})
	ot := opTrace{write: sp.write, lat: lat, pageErr: math.NaN()}
	for i := range recs {
		tr.engineSpan(&recs[i], callID, sp.id, sp.client)
		r := &recs[i]
		ot.wall += r.Wall
		ot.pages += r.PageAccesses()
		ot.hits += r.Hits
		ot.misses += r.Misses
		ot.lock += r.LockWaitNs
		ot.logw += r.LogWaitNs
		ot.rstall += r.ReadStallNs
		ot.wstall += r.WriteStallNs
		ot.rows = max(ot.rows, r.Rows)
		if r.PredictedPages > 0 && r.PageAccesses() > 0 {
			ot.pageErr = math.Abs(r.PredictedPages-float64(r.PageAccesses())) / float64(r.PageAccesses())
		}
	}
	tr.ops = append(tr.ops, ot)
}

func (tr *tracer) engineSpan(r *fieldrepl.TraceRecord, parent, op uint64, client int) {
	tr.nextID++
	start := r.Start.Sub(tr.t0).Nanoseconds()
	tr.spans = append(tr.spans, span{ID: tr.nextID, Parent: parent, Op: op, Name: "engine." + r.Kind, Client: client,
		Start: start, End: start + r.Wall.Nanoseconds(), Rec: r})
}

// checkpoint records an explicit DB.Sync with the engine records it caused.
// Sync runs on the direct API, so on a served workload the origin "" holds
// only checkpoint records; on an embedded one the client's own operation
// has already drained its records.
func (tr *tracer) checkpoint(client int, start time.Time, d time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	recs := tr.byOrigin[""]
	tr.byOrigin[""] = nil
	tr.nextID++
	id := tr.nextID
	tr.spans = append(tr.spans, span{ID: id, Op: id, Name: "DB.Sync", Client: client,
		Start: start.Sub(tr.t0).Nanoseconds(), End: start.Add(d).Sub(tr.t0).Nanoseconds()})
	for i := range recs {
		tr.engineSpan(&recs[i], id, id, client)
	}
}

// stop uninstalls the sink.
func (tr *tracer) stop(db *fieldrepl.DB) { db.SetSlowQueryLog(0, nil) }

// write stores the spans as JSON.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// share is part/whole, 0 when the whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// tracedMetrics derives the ratio and count layer metrics from the traced
// windows, their operation traces, and the untraced windows between them.
func tracedMetrics(spec *workloadSpec, tr *tracer, plain, traced []window) map[string]float64 {
	w := merge(traced)
	rate := func(ws []window) float64 {
		v := make([]float64, len(ws))
		for i, s := range ws {
			v[i] = opsPerS(s)
		}
		return median(v)
	}
	var wall, lock, logw, rstall, wstall float64
	var hits, misses, readRows, writePages, writeRows, nWrites int64
	var readWall float64
	var wire, pageErr []float64
	for _, o := range tr.ops {
		wall += float64(o.wall)
		lock += float64(o.lock)
		logw += float64(o.logw)
		rstall += float64(o.rstall)
		wstall += float64(o.wstall)
		hits += o.hits
		misses += o.misses
		if o.write {
			nWrites++
			writePages += o.pages
			writeRows += o.rows
		} else {
			readRows += o.rows
			readWall += float64(o.wall)
		}
		if spec.Served {
			wire = append(wire, us(o.lat-o.wall))
		}
		if !math.IsNaN(o.pageErr) {
			pageErr = append(pageErr, o.pageErr)
		}
	}
	ops := float64(w.ops)
	m := map[string]float64{
		"server.wire_us":          median(wire),
		"plan.page_err":           median(pageErr),
		"engine.compute_share":    1 - share(lock+logw+rstall+wstall, wall),
		"engine.us_per_row":       share(readWall/1e3, float64(readRows)),
		"engine.alloc_kb_per_op":  share(float64(w.allocBytes)/1024, ops),
		"engine.lock_wait_share":  share(lock, wall),
		"core.pages_per_update":   share(float64(writePages), float64(nWrites)),
		"core.rows_per_update":    share(float64(writeRows), float64(nWrites)),
		"buffer.hit_ratio":        share(float64(hits), float64(hits+misses)),
		"buffer.evictions_per_op": share(float64(w.evictions), ops),
		"buffer.read_stall_share": share(rstall, wall),
		"pagefile.reads_per_op":   share(float64(w.io.Reads), ops),
		"pagefile.writes_per_op":  share(float64(w.io.Writes), ops),
		"wal.fsyncs_per_commit":   share(float64(w.wal.Fsyncs), float64(w.wal.Commits)),
		"wal.bytes_per_commit":    share(float64(w.wal.Bytes), float64(w.wal.Commits)),
		"wal.log_wait_share":      share(logw, wall),
		"trace_overhead":          1 - share(rate(traced), rate(plain)),
	}
	var ck []float64
	for _, d := range append(w.ckpts, merge(plain).ckpts...) {
		ck = append(ck, ms(d))
	}
	m["wal.checkpoint_ms"] = median(ck)
	return m
}

func opsPerS(w window) float64 { return share(float64(w.ops), w.elapsed.Seconds()) }
