package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// buildScanFixture fills a file with records of mixed sizes and then grows a
// third of them past their page's free space, so the file contains forwarded
// records (stubs + moved bodies). Returns the expected payload per OID.
func buildScanFixture(t testing.TB, f *File, nrec int) map[pagefile.OID][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	want := make(map[pagefile.OID][]byte, nrec)
	var oids []pagefile.OID
	for i := 0; i < nrec; i++ {
		payload := make([]byte, 40+rng.Intn(200))
		rng.Read(payload)
		oid, err := f.Insert(payload)
		if err != nil {
			t.Fatal(err)
		}
		want[oid] = payload
		oids = append(oids, oid)
	}
	// Grow every third record well past page free space to force moves.
	for i := 0; i < len(oids); i += 3 {
		payload := make([]byte, 1500+rng.Intn(800))
		rng.Read(payload)
		if err := f.Update(oids[i], payload); err != nil {
			t.Fatal(err)
		}
		want[oids[i]] = payload
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Forwarded == 0 {
		t.Fatal("fixture has no forwarded records; the equivalence test would not cover stubs")
	}
	return want
}

// collectScan runs the given scan function and returns OID->payload,
// failing on duplicate visits.
func collectScan(t *testing.T, scan func(fn func(pagefile.OID, []byte) error) error) map[pagefile.OID][]byte {
	t.Helper()
	var mu sync.Mutex
	got := make(map[pagefile.OID][]byte)
	err := scan(func(oid pagefile.OID, payload []byte) error {
		cp := append([]byte(nil), payload...)
		mu.Lock()
		defer mu.Unlock()
		if _, dup := got[oid]; dup {
			return fmt.Errorf("record %v visited twice", oid)
		}
		got[oid] = cp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestScanParallelEquivalence checks that ScanParallel visits exactly the
// records Scan visits — same OIDs, same payloads, forwarded records at their
// home position exactly once — for several worker counts.
func TestScanParallelEquivalence(t *testing.T) {
	f := newFile(t, 64)
	want := buildScanFixture(t, f, 600)

	seq := collectScan(t, f.Scan)
	if len(seq) != len(want) {
		t.Fatalf("Scan visited %d records, want %d", len(seq), len(want))
	}
	for oid, payload := range want {
		if !bytes.Equal(seq[oid], payload) {
			t.Fatalf("Scan payload mismatch at %v", oid)
		}
	}

	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par := collectScan(t, func(fn func(pagefile.OID, []byte) error) error {
				return f.ScanParallel(workers, func() func(pagefile.OID, []byte) error { return fn })
			})
			if len(par) != len(seq) {
				t.Fatalf("ScanParallel visited %d records, want %d", len(par), len(seq))
			}
			for oid, payload := range seq {
				if !bytes.Equal(par[oid], payload) {
					t.Fatalf("payload mismatch at %v", oid)
				}
			}
		})
	}
}

// TestScanParallelStopsOnError checks that a callback error cancels the scan
// promptly and is the error returned.
func TestScanParallelStopsOnError(t *testing.T) {
	f := newFile(t, 64)
	buildScanFixture(t, f, 400)
	boom := errors.New("boom")
	var calls atomic.Int64
	err := f.ScanParallel(4, func() func(pagefile.OID, []byte) error {
		return func(oid pagefile.OID, payload []byte) error {
			if calls.Add(1) == 10 {
				return boom
			}
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	st, err2 := f.Stats()
	if err2 != nil {
		t.Fatal(err2)
	}
	if n := calls.Load(); n >= int64(st.Live) {
		t.Errorf("scan made %d calls after error (of %d records); stop flag not honored", n, st.Live)
	}
}

// slowStore delays reads to emulate device latency, so the benchmark's
// worker speedup reflects overlapped I/O rather than CPU parallelism. It
// sleeps once per ReadPage and once per ReadPages batch, the way a device
// charges one seek per I/O whatever its transfer size, and keeps the count
// of reads and the time they actually slept: a sleep shorter than the
// timer's granularity (about 1 ms on some VMs) lasts the granularity, not
// what was asked.
type slowStore struct {
	pagefile.Store
	latency time.Duration
	reads   atomic.Int64
	slept   atomic.Int64 // nanoseconds
}

func (s *slowStore) delay() {
	start := time.Now()
	time.Sleep(s.latency)
	s.slept.Add(int64(time.Since(start)))
	s.reads.Add(1)
}

func (s *slowStore) ReadPage(pid pagefile.PageID, buf *pagefile.Page) error {
	s.delay()
	return s.Store.ReadPage(pid, buf)
}

func (s *slowStore) ReadPages(f pagefile.FileID, start uint32, bufs []pagefile.Page) error {
	s.delay()
	return s.Store.ReadPages(f, start, bufs)
}

// BenchmarkScanThroughput measures full-scan pages/s across pool shard and
// scan worker counts on a latency-bearing memory store. The pool is smaller
// than the file so every scan is cold; workers>1 on a sharded pool overlap
// their miss reads. One shard serves only one worker: its lock is held
// across a miss read, so more workers would measure the lock convoy, not the
// scan. The delay is 1 ms, which the timer honours, and the realized mean
// delay per read is reported beside pages/s, so a speedup is read against
// the latency the reads really had. Run with -bench ScanThroughput.
func BenchmarkScanThroughput(b *testing.B) {
	mem := pagefile.NewMemStore()
	b.Cleanup(func() { mem.Close() })
	build := buffer.New(mem, 256)
	f, err := Create(build, "bench")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 120)
	for i := 0; i < 40000; i++ {
		if _, err := f.Insert(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := build.FlushAll(); err != nil {
		b.Fatal(err)
	}
	npages, err := f.NumPages()
	if err != nil {
		b.Fatal(err)
	}
	store := &slowStore{Store: mem, latency: time.Millisecond}

	for _, cfg := range []struct{ shards, workers int }{
		{1, 1}, {8, 1}, {8, 2}, {8, 4}, {8, 8},
	} {
		b.Run(fmt.Sprintf("shards=%d/workers=%d", cfg.shards, cfg.workers), func(b *testing.B) {
			pool := buffer.NewSharded(store, 256, cfg.shards)
			bf, err := Open(pool, f.ID())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			store.reads.Store(0)
			store.slept.Store(0)
			start := time.Now()
			for i := 0; i < b.N; i++ {
				var seen atomic.Int64
				count := func(pagefile.OID, []byte) error {
					seen.Add(1)
					return nil
				}
				if err := bf.ScanParallel(cfg.workers, func() func(pagefile.OID, []byte) error { return count }); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			b.ReportMetric(float64(npages)*float64(b.N)/elapsed.Seconds(), "pages/s")
			if n := store.reads.Load(); n > 0 {
				b.ReportMetric(float64(store.slept.Load())/float64(n)/1e6, "delay_ms/read")
			}
		})
	}
}
