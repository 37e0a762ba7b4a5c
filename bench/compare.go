package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method), which
// is what the benchmark's acceptance rule is stated in.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the run-to-run spread of a metric as a share of its median: the
// distance between the quartiles from four runs up, the full range for two
// or three, unknown (0) for one.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 || len(values) < 2 {
		return 0
	}
	if len(values) < 4 {
		s := append([]float64(nil), values...)
		sort.Float64s(s)
		return (s[len(s)-1] - s[0]) / med
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / med
}

func loadResults(path string) (resultFile, error) {
	var f resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects one end-to-end metric of one workload over a file's runs.
func (f resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r.Metrics[metric])
		}
	}
	return out
}

// compareFiles prints one row per workload x end-to-end metric: both
// medians, how much worse b is than a as a share of a, the bound, both
// spreads and a verdict. "regressed": b is worse than a by more than the
// bound. "unresolved": it is not, but a spread is wider than the bound, so
// the runs cannot tell. It reports whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  %s  GOMAXPROCS %d  %s  seed %d x%d\n", pathA, a.Stamp.Commit, a.Stamp.GoVersion, a.Stamp.GOMAXPROCS, a.Stamp.CPU, a.Stamp.Seed, a.Stamp.Repeat)
	fmt.Fprintf(w, "b: %s  commit %s  %s  GOMAXPROCS %d  %s  seed %d x%d\n", pathB, b.Stamp.Commit, b.Stamp.GoVersion, b.Stamp.GOMAXPROCS, b.Stamp.CPU, b.Stamp.Seed, b.Stamp.Repeat)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse\tbound\tspread a\tspread b\tverdict\t")
	regressed := false
	for _, spec := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(spec.Name, m.Name), b.values(spec.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := share(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\t\n",
				spec.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return regressed, tw.Flush()
}
