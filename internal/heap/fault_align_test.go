package heap

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// faultScanResult captures everything observable about one scan against a
// fault plan: the error class, how many records were visited before it, the
// store's final operation index, and how many faults fired.
type faultScanResult struct {
	injectedErr bool
	otherErr    bool
	visited     int
	ops         int64
	injected    int64
}

// runFaultScan builds a fresh multi-page heap file over a FaultStore,
// schedules a read fault k read-operations after the build, and scans —
// traced when tr is non-nil. The build is deterministic, so two calls with
// the same parameters exercise identical store operation sequences.
func runFaultScan(t *testing.T, k int64, traced bool) faultScanResult {
	t.Helper()
	mem := pagefile.NewMemStore()
	t.Cleanup(func() { mem.Close() })
	fs := pagefile.NewFaultStore(mem)
	pool := buffer.New(fs, 64)
	f, err := Create(pool, "t")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 700)
	for i := 0; i < 40; i++ {
		if _, err := f.Insert(append(payload, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Reset(); err != nil {
		t.Fatal(err)
	}

	fs.AddFault(pagefile.Fault{Index: fs.Ops() + k, Op: pagefile.OpRead})

	scanFile := f
	var tr *obs.Trace
	if traced {
		tr = obs.NewRegistry(pagefile.PageSize).Start(obs.KindQuery, "t", "")
		scanFile = f.WithTrace(tr)
	}
	var res faultScanResult
	err = scanFile.Scan(func(oid pagefile.OID, payload []byte) error {
		res.visited++
		return nil
	})
	res.injectedErr = errors.Is(err, pagefile.ErrInjected)
	res.otherErr = err != nil && !res.injectedErr
	res.ops = fs.Ops()
	res.injected = fs.Injected()
	return res
}

// TestFaultPlanAlignmentTracedScan pins that tracing does not shift fault
// plans: attribution happens at the pool level, so the store sees the exact
// same operation sequence whether a scan is traced or not — a fault scheduled
// at read N fires at the same point, the scan fails (or survives) the same
// way, and the same number of records is visited.
func TestFaultPlanAlignmentTracedScan(t *testing.T) {
	for _, k := range []int64{0, 3, 7} {
		t.Run(fmt.Sprintf("faultAtRead+%d", k), func(t *testing.T) {
			plain := runFaultScan(t, k, false)
			traced := runFaultScan(t, k, true)
			if plain != traced {
				t.Fatalf("traced scan diverged from untraced:\nuntraced: %+v\ntraced:   %+v", plain, traced)
			}
			if plain.injected == 0 {
				t.Fatalf("fault never fired: %+v", plain)
			}
		})
	}
}
