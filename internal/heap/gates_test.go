//go:build gates

package heap

import (
	"sort"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// TestTraceOverhead is the telemetry overhead gate (go test -tags gates):
// the whole recording path — Start, a WithTrace scan that charges every
// page, Finish into the per-kind histograms and the recent-trace ring — must
// cost at most 5% of the same warm scan untraced. The pool holds all 2,000
// pages, so no I/O hides the recording cost. Each of 48 rounds times both
// scans back to back, alternating which goes first to cancel the second
// slot's warmer-machine advantage; the gate is the median traced/untraced
// ratio, which discards interrupted rounds.
func TestTraceOverhead(t *testing.T) {
	const pages, rounds = 2000, 48
	store := pagefile.NewMemStore()
	defer store.Close()
	f, err := Create(buffer.New(store, pages+64), "overhead")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 120)
	for n := uint32(0); n < pages; n, err = f.NumPages() {
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 256; i++ {
			payload[i%len(payload)]++
			if _, err := f.Insert(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sink int64
	touch := func(_ pagefile.OID, p []byte) error {
		for _, b := range p {
			sink += int64(b)
		}
		return nil
	}
	reg := obs.NewRegistry(64)
	scan := func(traced bool) time.Duration {
		view, tr := f, (*obs.Trace)(nil)
		if traced {
			tr = reg.Start(obs.KindQuery, "overhead", "scan")
			view = f.WithTrace(tr)
		}
		start := time.Now()
		if err := view.Scan(touch); err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		if traced {
			reg.Finish(tr)
		}
		return d
	}
	scan(false)
	scan(true)
	ratios := make([]float64, rounds)
	for i := range ratios {
		var plain, traced time.Duration
		if i%2 == 0 {
			plain, traced = scan(false), scan(true)
		} else {
			traced, plain = scan(true), scan(false)
		}
		ratios[i] = float64(traced) / float64(plain)
	}
	sort.Float64s(ratios)
	overhead := 100 * ((ratios[rounds/2-1]+ratios[rounds/2])/2 - 1)
	t.Logf("tracing overhead %+.2f%% of a warm %d-page scan (limit 5%%)", overhead, pages)
	if overhead > 5 {
		t.Fatalf("tracing costs %.2f%% of a warm scan, limit 5%%", overhead)
	}
}
