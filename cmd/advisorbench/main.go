// Command advisorbench validates the workload advisor's two quantitative
// promises and writes the evidence as JSON:
//
//   - convergence: on a replayed workload that shifts from read-heavy to
//     update-heavy, the advisor's recommendation reaches the Section-6
//     optimum for the true mix within the window ring's budget — the
//     read-heavy history ages out instead of anchoring the ranking;
//
//   - overhead: the whole advisory pipeline (trace stamping, the registry
//     subscription, windowed aggregation, drift histograms) costs at most a
//     few percent of the same warm in-memory query workload with the advisor
//     disabled.
//
//     advisorbench -out BENCH_advisor.json
//
// The overhead run pairs rounds of identical dotted-path queries against two
// engines populated with the same data — advisor off and on — and summarizes
// the median on/off ratio; pairing and alternating round order cancel machine
// drift and slot bias. The process exits non-zero when either check fails, so
// `make advisorbench` doubles as a regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"github.com/exodb/fieldrepl/internal/advisor"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/engine"
	"github.com/exodb/fieldrepl/internal/schema"
)

type convergenceResult struct {
	WindowOps         int    `json:"window_ops"`
	Windows           int    `json:"windows"`
	ReadRecommended   string `json:"read_recommended"`
	ReadOptimum       string `json:"read_optimum"`
	UpdateRecommended string `json:"update_recommended"`
	UpdateOptimum     string `json:"update_optimum"`
	// WindowsToConverge counts the update-phase windows replayed before the
	// recommendation matched the update-heavy optimum; LimitWindows is the
	// gate (ring length + 2).
	WindowsToConverge int  `json:"windows_to_converge"`
	LimitWindows      int  `json:"limit_windows"`
	Pass              bool `json:"pass"`
}

type overheadResult struct {
	Emps         int     `json:"emps"`
	QueriesRound int     `json:"queries_per_round"`
	Iters        int     `json:"iters"`
	BaseNsOp     int64   `json:"baseline_ns_per_op"`
	AdvisedNsOp  int64   `json:"advised_ns_per_op"`
	OverheadPct  float64 `json:"overhead_pct"`
	LimitPct     float64 `json:"limit_pct"`
	Pass         bool    `json:"pass"`
}

type report struct {
	Convergence convergenceResult `json:"convergence"`
	Overhead    overheadResult    `json:"overhead"`
}

func main() {
	out := flag.String("out", "BENCH_advisor.json", "write results to this file (- for stdout)")
	emps := flag.Int("emps", 2000, "employee objects for both checks")
	iters := flag.Int("iters", 30, "paired query rounds for the overhead estimate")
	limit := flag.Float64("maxoverhead", 5.0, "fail if advisory overhead exceeds this percent")
	flag.Parse()

	rep := report{
		Convergence: checkConvergence(*emps),
		Overhead:    checkOverhead(*emps, *iters, *limit),
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	} else {
		fmt.Fprintf(os.Stderr, "advisorbench: wrote %s\n", *out)
	}
	if !rep.Convergence.Pass || !rep.Overhead.Pass {
		fatal(fmt.Errorf("check failed (convergence pass=%v, overhead pass=%v)",
			rep.Convergence.Pass, rep.Overhead.Pass))
	}
}

func str(s string) schema.Value { return schema.StringValue(s) }
func num(i int64) schema.Value  { return schema.IntValue(i) }

// openSeeded builds the paper's Figure 1 schema in a fresh in-memory engine
// and populates orgs, departments, and employees.
func openSeeded(cfg engine.Config, emps int) *engine.DB {
	db, err := engine.Open(cfg)
	if err != nil {
		fatal(err)
	}
	must := func(err error) {
		if err != nil {
			fatal(err)
		}
	}
	must(db.DefineType("ORG", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "budget", Kind: schema.KindInt},
	}))
	must(db.DefineType("DEPT", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "budget", Kind: schema.KindInt},
		{Name: "org", Kind: schema.KindRef, RefType: "ORG"},
	}))
	must(db.DefineType("EMP", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "salary", Kind: schema.KindInt},
		{Name: "dept", Kind: schema.KindRef, RefType: "DEPT"},
	}))
	must(db.CreateSet("Org", "ORG"))
	must(db.CreateSet("Dept", "DEPT"))
	must(db.CreateSet("Emp1", "EMP"))

	// F = emps/depts = 2 replicas per department and a selective predicate
	// (Fr ≈ 0.001) sit on the interesting side of the Section-6 tradeoff:
	// replication wins reads, no replication wins updates, so the shifting
	// workload genuinely flips the optimum.
	const nOrgs = 4
	nDepts := emps / 2
	orgs := make([]schema.Value, nOrgs)
	for i := range orgs {
		oid, err := db.Insert("Org", map[string]schema.Value{
			"name": str(fmt.Sprintf("org-%02d", i)), "budget": num(int64(1000 * i)),
		})
		must(err)
		orgs[i] = schema.RefValue(oid)
	}
	depts := make([]schema.Value, nDepts)
	for i := range depts {
		oid, err := db.Insert("Dept", map[string]schema.Value{
			"name": str(fmt.Sprintf("dept-%04d", i)), "budget": num(int64(100 * i)),
			"org": orgs[i%nOrgs],
		})
		must(err)
		depts[i] = schema.RefValue(oid)
	}
	for i := 0; i < emps; i++ {
		_, err := db.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("emp-%04d", i)), "salary": num(int64(50000 + i)),
			"dept": depts[i%nDepts],
		})
		must(err)
	}
	return db
}

// optimumAt re-weighs a recommendation's costed strategies at update fraction
// pu and returns the Section-6 argmin slug.
func optimumAt(rec advisor.Recommendation, pu float64) string {
	best, bestCost := "", math.Inf(1)
	for slug, c := range rec.Costs {
		total := (1-pu)*c.Read + pu*c.Update
		if total < bestCost {
			bestCost = total
			best = slug
		}
	}
	return best
}

func recFor(rep advisor.Report, path string) (advisor.Recommendation, bool) {
	for _, rec := range rep.Recommendations {
		if rec.Path == path {
			return rec, true
		}
	}
	return advisor.Recommendation{}, false
}

// checkConvergence replays a shifting workload against a small window ring
// and measures how many update-heavy windows pass before the recommendation
// matches the optimum at the new true mix.
func checkConvergence(emps int) convergenceResult {
	const windowOps, windows = 64, 4
	res := convergenceResult{
		WindowOps: windowOps, Windows: windows, LimitWindows: windows + 2,
		WindowsToConverge: -1,
	}
	db := openSeeded(engine.Config{AdvisorWindowOps: windowOps, AdvisorWindows: windows}, emps)
	defer db.Close()
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		fatal(err)
	}

	read := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := db.Query(nil, engine.Query{
				Set:     "Emp1",
				Project: []string{"name"},
				Where:   &engine.Pred{Expr: "dept.name", Op: engine.OpEQ, Value: str("dept-0001")},
			}); err != nil {
				fatal(err)
			}
		}
	}
	update := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := db.UpdateWhere(nil, "Dept",
				engine.Pred{Expr: "name", Op: engine.OpEQ, Value: str("dept-0001")},
				map[string]schema.Value{"name": str("dept-0001")}); err != nil {
				fatal(err)
			}
		}
	}

	// Phase A: pure reads until the ring is full of read-only windows.
	read(windows * windowOps)
	rec, ok := recFor(db.Advise(), "Emp1.dept.name")
	if !ok {
		fatal(fmt.Errorf("no recommendation for Emp1.dept.name after read phase"))
	}
	res.ReadRecommended, res.ReadOptimum = rec.Recommended, optimumAt(rec, 0)

	// Phase B: the workload flips to pure updates of the replicated field.
	for round := 1; round <= res.LimitWindows; round++ {
		update(windowOps)
		rec, ok = recFor(db.Advise(), "Emp1.dept.name")
		if !ok {
			fatal(fmt.Errorf("recommendation disappeared during update phase"))
		}
		if rec.UpdateFraction >= 0.9 && rec.Recommended == optimumAt(rec, 1) {
			res.WindowsToConverge = round
			break
		}
	}
	res.UpdateRecommended, res.UpdateOptimum = rec.Recommended, optimumAt(rec, 1)
	// The seeded geometry makes the two optima differ, so a pass proves the
	// advisor actually tracked the shift rather than never moving at all.
	res.Pass = res.ReadRecommended == res.ReadOptimum &&
		res.ReadOptimum != res.UpdateOptimum &&
		res.WindowsToConverge > 0 && res.WindowsToConverge <= res.LimitWindows
	fmt.Fprintf(os.Stderr, "advisorbench: convergence read=%s/%s update=%s/%s windows=%d (limit %d)\n",
		res.ReadRecommended, res.ReadOptimum, res.UpdateRecommended, res.UpdateOptimum,
		res.WindowsToConverge, res.LimitWindows)
	return res
}

// checkOverhead times identical warm dotted-path query rounds against two
// equally-populated in-memory engines — advisor disabled and enabled — and
// reports the median paired ratio. The dotted predicate is the worst case:
// every query stamps path keys, wakes the subscription, and feeds both the
// mix aggregation and the drift histograms.
func checkOverhead(emps, iters int, limit float64) overheadResult {
	const queriesPerRound = 20
	base := openSeeded(engine.Config{AdvisorDisabled: true}, emps)
	defer base.Close()
	advised := openSeeded(engine.Config{}, emps)
	defer advised.Close()

	round := func(db *engine.DB) time.Duration {
		start := time.Now()
		for i := 0; i < queriesPerRound; i++ {
			if _, _, err := db.Query(nil, engine.Query{
				Set:     "Emp1",
				Project: []string{"name"},
				Where:   &engine.Pred{Expr: "dept.name", Op: engine.OpEQ, Value: str("dept-0001")},
			}); err != nil {
				fatal(err)
			}
		}
		return time.Since(start)
	}

	round(base)
	round(advised) // warm pools and both code paths before measuring
	ratios := make([]float64, 0, iters)
	var bestBase, bestAdvised time.Duration
	for i := 0; i < iters; i++ {
		var b, a time.Duration
		if i%2 == 0 {
			b = round(base)
			a = round(advised)
		} else {
			a = round(advised)
			b = round(base)
		}
		ratios = append(ratios, float64(a)/float64(b))
		if bestBase == 0 || b < bestBase {
			bestBase = b
		}
		if bestAdvised == 0 || a < bestAdvised {
			bestAdvised = a
		}
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (median + ratios[len(ratios)/2-1]) / 2
	}
	overhead := 100 * (median - 1)

	perOp := func(d time.Duration) int64 { return d.Nanoseconds() / queriesPerRound }
	fmt.Fprintf(os.Stderr, "advisorbench: overhead baseline=%v advised=%v (%+.2f%%, limit %.1f%%)\n",
		bestBase, bestAdvised, overhead, limit)
	return overheadResult{
		Emps: emps, QueriesRound: queriesPerRound, Iters: iters,
		BaseNsOp: perOp(bestBase), AdvisedNsOp: perOp(bestAdvised),
		OverheadPct: overhead, LimitPct: limit,
		Pass: overhead <= limit,
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "advisorbench: %v\n", err)
	os.Exit(1)
}
