// Command bench is the repository's benchmark: four named workloads driven
// through the public entry points (fieldrepl.DB, DB.Serve + client.Client),
// nine end-to-end metrics per workload with every answer checked, and a
// traced run per workload for the per-layer numbers. See README.md.
//
//	go run . -seed 1                      every workload, then the per-layer block
//	go run . -repeat 5 -json a.json       five sets of runs into one result file
//	go run . -compare a.json b.json       verdict per workload x end-to-end metric
//	go run . -workload mix.inplace -seed 3 -seconds 10 -trace 0
//	                                      one run, the result as one JSON line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// setUps is how many times a run sets the database up; setup_s is their
// median and the measured window runs on the last.
const setUps = 3

// tracePairs is how many untraced/traced pairs of windows a timed traced run
// measures.
const tracePairs = 4

// runResult is one run of one workload: end-to-end metrics from an untraced
// run, or per-layer metrics from a traced one.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Diag holds what is printed but not bounded: sizes, sample counts,
	// p99 and maximum latencies, error_share.
	Diag   map[string]float64 `json:"diagnostics"`
	Errors []string           `json:"errors,omitempty"`
}

// runEndToEnd sets the workload up, measures one untraced window and runs
// the closing checks.
func runEndToEnd(spec *workloadSpec, sc scale, seed int64, seconds time.Duration, work string) (runResult, error) {
	res := runResult{Workload: spec.Name, Seed: seed}
	var e *env
	var setups []float64
	for i := 0; i < setUps; i++ {
		if e != nil {
			e.discard()
		}
		var d time.Duration
		var err error
		if e, d, err = setUp(spec, sc, seed, work); err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
	}
	mark0 := len(e.marks)
	w := e.measure(seconds, sc.Ops)
	pagesPerOp := e.pagesPerOp(mark0, w.io, w.ops)
	cl := e.finish()
	res.Attempted = w.ops + cl.attempted
	res.Failed = w.failed + cl.failed
	res.Errors = e.errs
	if w.ops == 0 {
		return res, fmt.Errorf("%s: no operation completed", spec.Name)
	}
	res.Metrics = map[string]float64{
		"ops_per_s":     opsPerS(w),
		"read_p50_ms":   ms(quantile(w.reads, 0.50)),
		"read_p95_ms":   ms(quantile(w.reads, 0.95)),
		"write_p50_ms":  ms(quantile(w.writes, 0.50)),
		"write_p95_ms":  ms(quantile(w.writes, 0.95)),
		"pages_per_op":  pagesPerOp,
		"space_amp":     cl.spaceAmp,
		"log_kb_per_op": float64(w.wal.Bytes) / 1024 / float64(w.ops),
		"setup_s":       median(setups),
	}
	res.Diag = map[string]float64{
		"error_share":   float64(res.Failed) / float64(res.Attempted),
		"ops":           float64(w.ops),
		"window_s":      w.elapsed.Seconds(),
		"reads":         float64(len(w.reads)),
		"writes":        float64(len(w.writes)),
		"read_p99_ms":   ms(quantile(w.reads, 0.99)),
		"read_max_ms":   ms(quantile(w.reads, 1)),
		"write_p99_ms":  ms(quantile(w.writes, 0.99)),
		"write_max_ms":  ms(quantile(w.writes, 1)),
		"cpu_ms_per_op": ms(w.cpu) / float64(w.ops),
		"checkpoints":   float64(len(w.ckpts)),
		"gc_cycles":     float64(w.gcCycles),
		"heap_live_mb":  float64(w.heapLive) / (1 << 20),
		"store_reads":   float64(w.io.Reads),
		"store_writes":  float64(w.io.Writes),
		"data_pages":    float64(cl.dataPages),
		"pool_pages":    float64(spec.PoolPages),
		"clients":       float64(spec.Clients),
	}
	return res, nil
}

// runTraced sets the workload up once and measures pairs of windows on it:
// one with no sink installed, then one with every engine trace record
// collected and every public call wrapped in a span. Alternating the two
// keeps a drift of the machine out of their ratio, trace_overhead. The
// windows take 4/5 of the budget and the layer loops the rest. The spans are
// written to outDir/trace-<workload>.json.
func runTraced(spec *workloadSpec, sc scale, seed int64, seconds time.Duration, work, outDir string) (runResult, error) {
	res := runResult{Workload: spec.Name, Seed: seed, Traced: true}
	e, _, err := setUp(spec, sc, seed, work)
	if err != nil {
		return res, err
	}
	pairs := tracePairs
	if sc.Ops > 0 {
		pairs = 1
	}
	tr := newTracer()
	var plain, traced []window
	slice := seconds * 2 / 5 / time.Duration(pairs)
	for i := 0; i < pairs; i++ {
		// plain-traced, traced-plain, ...: a steady drift cancels.
		for _, on := range []bool{i%2 == 1, i%2 == 0} {
			if !on {
				plain = append(plain, e.measure(slice, sc.Ops))
				continue
			}
			tr.start(e.db)
			e.tr = tr
			traced = append(traced, e.measure(slice, sc.Ops))
			e.tr = nil
			tr.stop(e.db)
		}
	}
	res.Metrics = tracedMetrics(spec, tr, plain, traced)
	loops, err := layerLoops(e, seed, work)
	if err != nil {
		e.discard()
		return res, fmt.Errorf("%s: layer loops: %w", spec.Name, err)
	}
	for k, v := range loops {
		res.Metrics[k] = v
	}
	cl := e.finish()
	p, t := merge(plain), merge(traced)
	res.Attempted = p.ops + t.ops + cl.attempted
	res.Failed = p.failed + t.failed + cl.failed
	res.Errors = e.errs
	res.Diag = map[string]float64{
		"untraced_ops_per_s": opsPerS(p),
		"traced_ops_per_s":   opsPerS(t),
		"traced_ops":         float64(t.ops),
		"spans":              float64(len(tr.spans)),
	}
	if res.Attempted == 0 {
		return res, fmt.Errorf("%s: no operation completed", spec.Name)
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+spec.Name+".json")); err != nil {
		return res, err
	}
	return res, nil
}

// table is the metric table a run reports against.
func (res runResult) table() []metricSpec {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload once, traced or not, and fails when the run did
// not emit exactly the metrics of its table, each finite.
func runOne(spec *workloadSpec, traced bool, sc scale, seed int64, seconds time.Duration, work, outDir string) (runResult, error) {
	var res runResult
	var err error
	if traced {
		res, err = runTraced(spec, sc, seed, seconds, work, outDir)
	} else {
		res, err = runEndToEnd(spec, sc, seed, seconds, work)
	}
	if err != nil {
		return res, err
	}
	return res, checkNames(res)
}

// checkNames fails when a run did not emit exactly the metrics of its table.
func checkNames(res runResult) error {
	table := res.table()
	if len(res.Metrics) != len(table) {
		return fmt.Errorf("%s: %d metrics emitted, table has %d", res.Workload, len(res.Metrics), len(table))
	}
	for _, s := range table {
		v, ok := res.Metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s missing or not finite", res.Workload, s.Name)
		}
	}
	return nil
}

// driverLine prints the one-line result the benchmark contract asks for.
func driverLine(w io.Writer, res runResult) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]val{}}
	for _, s := range res.table() {
		out.Metrics[s.Name] = val{Value: res.Metrics[s.Name], Unit: s.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// stamp identifies where a result file came from.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Seed       int64   `json:"seed"`
	Repeat     int     `json:"repeat"`
}

type resultFile struct {
	Stamp stamp       `json:"stamp"`
	Runs  []runResult `json:"runs"`
}

func newStamp(sc scale, seconds time.Duration, seed int64, repeat int) stamp {
	st := stamp{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		Scale: sc.Name, Seconds: seconds.Seconds(), Seed: seed, Repeat: repeat}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	if st.Commit == "unknown" { // built with -buildvcs=false, as run.sh does
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			st.Commit = strings.TrimSpace(string(out))
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}

func printRun(w io.Writer, res runResult) {
	title := "end to end"
	if res.Traced {
		title = "per layer (traced run + layer loops)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  attempted %d  failed %d\n", res.Workload, res.Seed, title, res.Attempted, res.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, s := range res.table() {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", s.Name, res.Metrics[s.Name], s.Unit, s.Layer, s.Moves)
	}
	keys := make([]string, 0, len(res.Diag))
	for k := range res.Diag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(tw, "  (%s)\t%.6g\t\n", k, res.Diag[k])
	}
	tw.Flush()
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
}

func main() {
	workload := flag.String("workload", "", "run only this workload and print the result as one JSON line")
	seed := flag.Int64("seed", 1, "seed of the data and of every client's op stream")
	seconds := flag.Float64("seconds", 15, "wall-clock budget of one measured window")
	trace := flag.Int("trace", 0, "with -workload: 0 measures end to end with tracing off, 1 runs traced for the per-layer metrics")
	scaleName := flag.String("scale", "full", "full, or tiny (small data, fixed op counts) for the smoke test")
	ops := flag.Int("ops", 0, "end every measured window after this many operations per client instead of after -seconds; page and log counts then repeat exactly")
	repeat := flag.Int("repeat", 1, "sets of runs, each on its own seed (seed, seed+1, ...)")
	jsonOut := flag.String("json", "", "result file of the full run (default <out>/result-seed<seed>.json)")
	outDir := flag.String("out", "out", "directory for trace and result files")
	work := flag.String("work", "", "directory for the scratch databases (default: the system temp dir)")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	if *ops > 0 {
		sc.Ops = *ops
	}
	if *work == "" {
		*work = os.TempDir()
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if *workload != "" {
		spec := findWorkload(*workload)
		if spec == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runOne(spec, *trace == 1, sc, *seed, budget, *work, *outDir)
		if err != nil {
			fatal(err)
		}
		for _, e := range res.Errors {
			fmt.Fprintln(os.Stderr, "bench:", e)
		}
		if err := driverLine(os.Stdout, res); err != nil {
			fatal(err)
		}
		if res.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	file := resultFile{Stamp: newStamp(sc, budget, *seed, *repeat)}
	failed := 0
	for r := 0; r < *repeat; r++ {
		for _, traced := range []bool{false, true} {
			for i := range workloads {
				res, err := runOne(&workloads[i], traced, sc, *seed+int64(r), budget, *work, *outDir)
				if err != nil {
					fatal(err)
				}
				printRun(os.Stdout, res)
				failed += res.Failed
				file.Runs = append(file.Runs, res)
			}
		}
	}
	if *jsonOut == "" {
		*jsonOut = filepath.Join(*outDir, fmt.Sprintf("result-seed%d.json", *seed))
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(*jsonOut), 0o755); err == nil {
			err = os.WriteFile(*jsonOut, raw, 0o644)
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nresults written to %s\n", *jsonOut)
	if failed > 0 {
		fatal(fmt.Errorf("%d operations or checks failed (error_share > 0)", failed))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
