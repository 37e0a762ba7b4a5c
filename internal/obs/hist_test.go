package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

// Exact small values (< 128 ns) land in width-1 buckets.
func TestHistExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 128; i++ {
		h.Observe(time.Duration(i))
	}
	s := h.Snapshot()
	if s.Count != 128 {
		t.Fatalf("count = %d, want 128", s.Count)
	}
	if got := s.Quantile(1.0); got != 127 {
		t.Fatalf("p100 = %v, want 127ns", got)
	}
	if s.Max != 127 {
		t.Fatalf("max = %d, want 127", s.Max)
	}
}

// Bucket index/upper-edge round trip: every value's bucket upper edge is >=
// the value and within 1/128 of it.
func TestHistBucketErrorBound(t *testing.T) {
	vals := []int64{1, 100, 127, 128, 129, 1000, 1e3, 1e4, 1e5, 1e6, 25e6, 1e9, 9999e6, 1e10, 1<<44 - 1}
	for _, v := range vals {
		i := histIndex(v)
		up := histUpper(i)
		if up < v {
			t.Fatalf("histUpper(%d)=%d < value %d", i, up, v)
		}
		if v >= 128 {
			rel := float64(up-v) / float64(v)
			if rel > 1.0/128 {
				t.Fatalf("value %d: upper %d, relative error %v > 1/128", v, up, rel)
			}
		}
		// The upper edge itself must map back to the same bucket.
		if histIndex(up) != i {
			t.Fatalf("histIndex(histUpper(%d)) = %d, want %d", i, histIndex(up), i)
		}
	}
	// Values above the range clamp into the last bucket.
	if histIndex(1<<50) != histBuckets-1 {
		t.Fatalf("overflow value not clamped to last bucket")
	}
}

// Quantiles over a known deterministic distribution spanning 1µs–10s stay
// within 1% of the exact order statistics. This is the telemetry accuracy
// gate (make gates); at 200,000 samples it runs in milliseconds, so the
// untagged run checks it at the same scale.
func TestHistQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// Log-uniform sweep over [1µs, 10s]: v = 1µs * 10^(7i/N).
	const n = 200000
	exact := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		v := int64(1e3 * math.Pow(10, 7*float64(i)/float64(n-1)))
		exact = append(exact, v)
		h.Observe(time.Duration(v))
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	s := h.Snapshot()
	var worst float64
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		rank := int(q*float64(n) + 0.5)
		if rank > n {
			rank = n
		}
		want := exact[rank-1]
		got := int64(s.Quantile(q))
		rel := math.Abs(float64(got-want)) / float64(want)
		if rel > 0.01 {
			t.Errorf("q=%v: got %d want %d, relative error %v > 1%%", q, got, want, rel)
		}
		worst = math.Max(worst, rel)
	}
	t.Logf("worst quantile error %.3f%% over %d samples (limit 1%%)", 100*worst, n)
	if int64(s.Quantile(1.0)) != s.Max {
		t.Errorf("p100 %v != max %v", s.Quantile(1.0), s.Max)
	}
	if s.Mean() <= 0 {
		t.Errorf("mean = %v, want > 0", s.Mean())
	}
}

// Observe is allocation-free (the acceptance bar for the hot recording path).
func TestHistObserveNoAllocs(t *testing.T) {
	h := NewHistogram()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(123456 * time.Nanosecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", allocs)
	}
}

// Concurrent observers lose no counts (atomic bucket increments).
func TestHistConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for i := 0; i < per; i++ {
				v = v*6364136223846793005 + 1442695040888963407
				h.Observe(time.Duration((v >> 33) & (1<<30 - 1)))
			}
		}(int64(w + 1))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var sum int64
	for _, c := range s.counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

// CumulativeLE matches a brute-force count and is monotone over the ladder.
func TestHistCumulative(t *testing.T) {
	h := NewHistogram()
	vals := []time.Duration{time.Microsecond, 10 * time.Microsecond, time.Millisecond, 40 * time.Millisecond, time.Second}
	for _, v := range vals {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.CumulativeLE(0); got != 0 {
		t.Fatalf("cum(0) = %d, want 0", got)
	}
	if got := s.CumulativeLE(2 * time.Millisecond); got != 3 {
		t.Fatalf("cum(2ms) = %d, want 3", got)
	}
	if got := s.CumulativeLE(time.Hour); got != int64(len(vals)) {
		t.Fatalf("cum(1h) = %d, want %d", got, len(vals))
	}
	var prev int64
	for _, le := range promBounds {
		c := s.CumulativeLE(le)
		if c < prev {
			t.Fatalf("cumulative counts not monotone at le=%v", le)
		}
		prev = c
	}
}

// Nil histograms and empty snapshots are inert.
func TestHistNil(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatalf("nil histogram snapshot not empty: %+v", s)
	}
	if sum := s.Summary(); sum.Count != 0 || sum.P99Ns != 0 {
		t.Fatalf("nil summary not empty: %+v", sum)
	}
}
