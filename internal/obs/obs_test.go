package obs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.StoreRead(1)
	tr.StoreWrite(1)
	tr.StoreAlloc(1)
	tr.Hit(1)
	tr.Miss(1)
	tr.Flush(1)
	tr.SetPlan("scan")
	if id := tr.ID(); id != 0 {
		t.Fatalf("nil trace ID = %d, want 0", id)
	}
	if c := tr.Counters(); c != (Counters{}) {
		t.Fatalf("nil trace Counters = %+v, want zero", c)
	}
	r := NewRegistry(4096)
	if rec := r.Finish(nil); !reflect.DeepEqual(rec, Record{}) {
		t.Fatalf("Finish(nil) = %+v, want zero Record", rec)
	}
}

func TestTraceCounters(t *testing.T) {
	r := NewRegistry(4096)
	tr := r.Start(KindQuery, "Emp1", "salary > 100000")
	tr.Hit(3)
	tr.Miss(2)
	tr.StoreRead(2)
	tr.StoreWrite(1)
	tr.Flush(1)
	tr.SetPlan("index:bysal")
	rec := r.Finish(tr)

	if rec.Kind != KindQuery || rec.Set != "Emp1" || rec.Detail != "salary > 100000" {
		t.Fatalf("record identity = %q/%q/%q", rec.Kind, rec.Set, rec.Detail)
	}
	if rec.Plan != "index:bysal" {
		t.Fatalf("Plan = %q", rec.Plan)
	}
	if rec.Hits != 3 || rec.Misses != 2 || rec.StoreReads != 2 || rec.StoreWrites != 1 {
		t.Fatalf("counters = %+v", rec.Counters)
	}
	if got := rec.PageAccesses(); got != 5 {
		t.Fatalf("PageAccesses = %d, want 5", got)
	}
	if got := rec.IO(); got != 3 {
		t.Fatalf("IO = %d, want 3", got)
	}
	if rec.Bytes != 3*4096 {
		t.Fatalf("Bytes = %d, want %d", rec.Bytes, 3*4096)
	}
}

func TestTraceConcurrentCharges(t *testing.T) {
	r := NewRegistry(4096)
	tr := r.Start(KindQuery, "R", "")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Hit(1)
				tr.Miss(1)
				tr.StoreRead(1)
			}
		}()
	}
	wg.Wait()
	rec := r.Finish(tr)
	want := int64(workers * per)
	if rec.Hits != want || rec.Misses != want || rec.StoreReads != want {
		t.Fatalf("counters = %+v, want %d each", rec.Counters, want)
	}
}

func TestRegistryIDsUniqueAndActiveSet(t *testing.T) {
	r := NewRegistry(4096)
	a := r.Start(KindQuery, "R", "")
	b := r.Start(KindDML, "S", "insert")
	if a.ID() == b.ID() || a.ID() == 0 {
		t.Fatalf("ids not unique: %d %d", a.ID(), b.ID())
	}
	if m := r.Metrics(); m.Active != 2 || m.Completed != 0 {
		t.Fatalf("Metrics = %+v", m)
	}
	r.Finish(a)
	r.Finish(b)
	if m := r.Metrics(); m.Active != 0 || m.Completed != 2 {
		t.Fatalf("Metrics after finish = %+v", m)
	}
}

func TestRegistryTotalsAggregate(t *testing.T) {
	r := NewRegistry(4096)
	var want Counters
	for i := 0; i < 5; i++ {
		tr := r.Start(KindQuery, "R", "")
		tr.Hit(int64(i))
		tr.StoreRead(int64(2 * i))
		want.Hits += int64(i)
		want.StoreReads += int64(2 * i)
		r.Finish(tr)
	}
	if m := r.Metrics(); m.Totals != want {
		t.Fatalf("Totals = %+v, want %+v", m.Totals, want)
	}
}

func TestRecentRingBounded(t *testing.T) {
	r := NewRegistry(4096)
	n := DefaultRecentCap + 10
	for i := 0; i < n; i++ {
		r.Finish(r.Start(KindQuery, "R", fmt.Sprintf("q%d", i)))
	}
	recent := r.Recent()
	if len(recent) != DefaultRecentCap {
		t.Fatalf("len(Recent) = %d, want %d", len(recent), DefaultRecentCap)
	}
	// Oldest first; the ring holds the last DefaultRecentCap completions.
	if recent[0].Detail != fmt.Sprintf("q%d", n-DefaultRecentCap) {
		t.Fatalf("ring head = %q", recent[0].Detail)
	}
	if recent[len(recent)-1].Detail != fmt.Sprintf("q%d", n-1) {
		t.Fatalf("ring tail = %q", recent[len(recent)-1].Detail)
	}
}

func TestSlowQuerySink(t *testing.T) {
	r := NewRegistry(4096)
	var mu sync.Mutex
	var slow []Record
	r.SetSlowQuery(time.Nanosecond, func(rec Record) {
		mu.Lock()
		slow = append(slow, rec)
		mu.Unlock()
	})
	tr := r.Start(KindQuery, "R", "")
	time.Sleep(time.Millisecond)
	r.Finish(tr)
	mu.Lock()
	got := len(slow)
	mu.Unlock()
	if got != 1 {
		t.Fatalf("slow sink invoked %d times, want 1", got)
	}
	if m := r.Metrics(); m.Slow != 1 {
		t.Fatalf("Metrics.Slow = %d, want 1", m.Slow)
	}

	// Disabled: no further records.
	r.SetSlowQuery(0, nil)
	r.Finish(r.Start(KindQuery, "R", ""))
	mu.Lock()
	got = len(slow)
	mu.Unlock()
	if got != 1 {
		t.Fatalf("slow sink invoked %d times after disable, want 1", got)
	}
}

// Overlapping operations: Recent is completion order, not id order. Ids are
// issued at Start, so a later-started operation that finishes first appears
// earlier in the ring with a higher id.
func TestRecentCompletionOrder(t *testing.T) {
	r := NewRegistry(4096)
	first := r.Start(KindQuery, "R", "slow")   // id 1, finishes last
	second := r.Start(KindDML, "S", "fast")    // id 2, finishes first
	third := r.Start(KindQuery, "R", "medium") // id 3, finishes second
	r.Finish(second)
	r.Finish(third)
	r.Finish(first)
	recent := r.Recent()
	if len(recent) != 3 {
		t.Fatalf("len(Recent) = %d, want 3", len(recent))
	}
	wantDetails := []string{"fast", "medium", "slow"}
	wantIDs := []uint64{2, 3, 1}
	for i, rec := range recent {
		if rec.Detail != wantDetails[i] || rec.ID != wantIDs[i] {
			t.Fatalf("ring[%d] = id %d %q, want id %d %q", i, rec.ID, rec.Detail, wantIDs[i], wantDetails[i])
		}
	}
}

// Wall == threshold fires the slow-query sink (boundary is inclusive),
// Wall == threshold-1ns does not. The registry clock is pinned so the wall
// time is exact.
func TestSlowQueryThresholdBoundary(t *testing.T) {
	r := NewRegistry(4096)
	base := time.Unix(1000, 0)
	clock := base
	r.now = func() time.Time { return clock }

	var fired int
	threshold := 10 * time.Millisecond
	r.SetSlowQuery(threshold, func(Record) { fired++ })

	// Exactly at the threshold: fires.
	tr := r.Start(KindQuery, "R", "at-threshold")
	clock = base.Add(threshold)
	if rec := r.Finish(tr); rec.Wall != threshold {
		t.Fatalf("Wall = %v, want %v", rec.Wall, threshold)
	}
	if fired != 1 {
		t.Fatalf("sink fired %d times at Wall == threshold, want 1", fired)
	}

	// One nanosecond below: does not fire.
	clock = base
	tr = r.Start(KindQuery, "R", "below-threshold")
	clock = base.Add(threshold - time.Nanosecond)
	r.Finish(tr)
	if fired != 1 {
		t.Fatalf("sink fired %d times at Wall == threshold-1ns, want still 1", fired)
	}
	if m := r.Metrics(); m.Slow != 1 {
		t.Fatalf("Metrics.Slow = %d, want 1", m.Slow)
	}
}

// Finish feeds the per-kind and per-(kind,set) latency histograms.
func TestRegistryLatencyHistograms(t *testing.T) {
	r := NewRegistry(4096)
	base := time.Unix(2000, 0)
	clock := base
	r.now = func() time.Time { return clock }

	for i, kind := range []string{KindQuery, KindQuery, KindDML} {
		tr := r.Start(kind, "Emp1", "")
		clock = clock.Add(time.Duration(i+1) * time.Millisecond)
		r.Finish(tr)
	}
	r.Finish(r.Start(KindFlush, "", "")) // setless: kind histogram only

	byKind := r.LatencyByKind()
	if byKind[KindQuery].Count != 2 || byKind[KindDML].Count != 1 || byKind[KindFlush].Count != 1 {
		t.Fatalf("per-kind counts = q:%d dml:%d flush:%d", byKind[KindQuery].Count, byKind[KindDML].Count, byKind[KindFlush].Count)
	}
	byKS := r.LatencyByKindSet()
	if len(byKS) != 2 {
		t.Fatalf("kind-set series = %d, want 2 (query|Emp1, dml|Emp1)", len(byKS))
	}
	for _, ks := range byKS {
		if ks.Set != "Emp1" {
			t.Fatalf("unexpected set %q", ks.Set)
		}
	}
	sums := r.LatencySummaries()
	if sums[KindQuery].Count != 2 || sums[KindQuery+"|Emp1"].Count != 2 {
		t.Fatalf("summaries = %+v", sums)
	}
	// Pinned clock: the query kind saw 1ms and 2ms walls; p50 within a
	// bucket width of 1ms.
	p50 := time.Duration(sums[KindQuery].P50Ns)
	if p50 < time.Millisecond || p50 > time.Millisecond+time.Millisecond/64 {
		t.Fatalf("query p50 = %v, want ~1ms", p50)
	}
}

// Wait-time charges flow through to the finished record.
func TestTraceWaitCharges(t *testing.T) {
	r := NewRegistry(4096)
	tr := r.Start(KindDML, "R", "insert")
	tr.LockWait(3 * time.Millisecond)
	tr.LogWait(5 * time.Millisecond)
	tr.ReadStall(7 * time.Microsecond)
	tr.WriteStall(11 * time.Microsecond)
	tr.LockWait(-time.Second) // negative charges are dropped
	rec := r.Finish(tr)
	if rec.LockWaitNs != int64(3*time.Millisecond) || rec.LogWaitNs != int64(5*time.Millisecond) {
		t.Fatalf("lock/log waits = %d/%d", rec.LockWaitNs, rec.LogWaitNs)
	}
	if rec.ReadStallNs != int64(7*time.Microsecond) || rec.WriteStallNs != int64(11*time.Microsecond) {
		t.Fatalf("read/write stalls = %d/%d", rec.ReadStallNs, rec.WriteStallNs)
	}
	var nilTr *Trace
	nilTr.LockWait(time.Second)
	nilTr.LogWait(time.Second)
	nilTr.ReadStall(time.Second)
	nilTr.WriteStall(time.Second) // nil-safe
}
