package engine

import (
	"math"
	"sync"
	"testing"

	"github.com/exodb/fieldrepl/internal/advisor"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/schema"
)

// optimumAt returns the strategy slug the Section-6 model picks at update
// fraction pu, re-weighing a recommendation's costed strategies.
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

func findRec(t *testing.T, rep advisor.Report, path string) advisor.Recommendation {
	t.Helper()
	for _, rec := range rep.Recommendations {
		if rec.Path == path {
			return rec
		}
	}
	t.Fatalf("no recommendation for %q in %d recommendations", path, len(rep.Recommendations))
	return advisor.Recommendation{}
}

// TestAdvisorConvergence replays a shifting workload — read-heavy, then
// update-heavy — and checks that the advisor's windowed mix tracks the shift
// and the recommendation converges to the Section-6 optimum for the true mix
// within the ring's window budget. The two optima must differ, so a pass
// proves the recommendation moved. Under -tags gates (make gates) it is the
// convergence gate, at advisorScale's gate size.
func TestAdvisorConvergence(t *testing.T) {
	windowOps := advisorScale.windowOps
	const windows = 4
	db := openEmployeeDB(t, Config{AdvisorWindowOps: windowOps, AdvisorWindows: windows})
	populate(t, db, advisorScale.orgs, advisorScale.depts, advisorScale.emps)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}

	read := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := db.Query(nil, Query{
				Set:     "Emp1",
				Project: []string{"name"},
				Where:   &Pred{Expr: "dept.name", Op: OpEQ, Value: str("dept-01")},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	update := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := db.UpdateWhere(nil, "Dept",
				Pred{Expr: "name", Op: OpEQ, Value: str("dept-01")},
				map[string]schema.Value{"name": str("dept-01")}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase A: pure reads across several windows.
	read(4 * windowOps)
	rep := db.Advise()
	if !rep.Enabled {
		t.Fatal("advisor should be enabled by default")
	}
	if rep.TracesObserved == 0 || rep.OpsObserved == 0 {
		t.Fatalf("no operations observed: %+v", rep)
	}
	rec := findRec(t, rep, "Emp1.dept.name")
	if rec.Current != "in-place" {
		t.Fatalf("current strategy = %q, want in-place", rec.Current)
	}
	if rec.UpdateFraction != 0 {
		t.Fatalf("pure-read phase: update fraction = %v, want 0", rec.UpdateFraction)
	}
	if rec.WindowReads == 0 {
		t.Fatalf("pure-read phase: no windowed reads: %+v", rec)
	}
	if want := optimumAt(rec, 0); rec.Recommended != want {
		t.Fatalf("read-heavy recommendation = %q, want Section-6 optimum %q (costs %+v)",
			rec.Recommended, want, rec.Costs)
	}
	readOpt := rec.Recommended

	// Phase B: the workload shifts to pure updates of the replicated field.
	// The read-heavy windows must age out of the ring within its budget and
	// the recommendation converge to the optimum at the new true mix.
	converged := 0
	var last advisor.Recommendation
	for round := 1; round <= windows+2; round++ {
		update(windowOps)
		last = findRec(t, db.Advise(), "Emp1.dept.name")
		if last.UpdateFraction >= 0.9 && last.Recommended == optimumAt(last, 1) {
			converged = round
			break
		}
	}
	if converged == 0 {
		t.Fatalf("after %d update windows: fraction=%v recommended=%q optimum=%q (costs %+v)",
			windows+2, last.UpdateFraction, last.Recommended, optimumAt(last, 1), last.Costs)
	}
	t.Logf("converged %s -> %s in %d update windows of %d ops (limit %d)",
		readOpt, last.Recommended, converged, windowOps, windows+2)
	if last.Recommended == readOpt {
		t.Fatalf("read- and update-heavy optima are both %q: the geometry cannot show the recommendation move", readOpt)
	}
	if last.Updates == 0 || last.Reads == 0 {
		t.Fatalf("all-time counts should span both phases: %+v", last)
	}

	rep = db.Advise()
	if rep.WindowsRotated < int64(windows) {
		t.Fatalf("windows rotated = %d, want >= %d", rep.WindowsRotated, windows)
	}
	if len(rep.ModelDrift) == 0 {
		t.Fatal("planned operations should feed the model-drift histograms")
	}
}

// TestAdvisorSuggestsUnreplicatedPath checks the other half of the loop: a
// dotted path that is read but not replicated shows up in the report costed
// against no replication, so the advisor can recommend *creating* replication.
func TestAdvisorSuggestsUnreplicatedPath(t *testing.T) {
	db := openEmployeeDB(t, Config{AdvisorWindowOps: 8, AdvisorWindows: 4})
	populate(t, db, 2, 4, 40)

	for i := 0; i < 24; i++ {
		if _, _, err := db.Query(nil, Query{
			Set:   "Emp1",
			Where: &Pred{Expr: "dept.budget", Op: OpGT, Value: num(100)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	rec := findRec(t, db.Advise(), "Emp1.dept.budget")
	if rec.Current != "no-replication" {
		t.Fatalf("unregistered path current = %q, want no-replication", rec.Current)
	}
	if rec.WindowReads == 0 {
		t.Fatalf("unregistered path saw no reads: %+v", rec)
	}
	if len(rec.Costs) != 3 {
		t.Fatalf("want all three strategies costed, got %v", rec.Costs)
	}
	if want := optimumAt(rec, 0); rec.Recommended != want {
		t.Fatalf("recommended %q, want %q", rec.Recommended, want)
	}
}

func TestAdvisorDisabled(t *testing.T) {
	db := openEmployeeDB(t, Config{AdvisorDisabled: true})
	populate(t, db, 1, 2, 8)
	if _, _, err := db.Query(nil, Query{Set: "Emp1", Where: &Pred{Expr: "dept.name", Op: OpEQ, Value: str("dept-01")}}); err != nil {
		t.Fatal(err)
	}
	rep := db.Advise()
	if rep.Enabled {
		t.Fatal("advisor disabled but report says enabled")
	}
	if rep.TracesObserved != 0 || len(rep.Recommendations) != 0 {
		t.Fatalf("disabled advisor accumulated state: %+v", rep)
	}
}

// TestAdvisorSubscriptionRace drives queries, updates, inserts, and Advise
// snapshots concurrently; run under -race it checks the trace subscription and
// the aggregation never race with the engine's own locking.
func TestAdvisorSubscriptionRace(t *testing.T) {
	db := openEmployeeDB(t, Config{AdvisorWindowOps: 8, AdvisorWindows: 2})
	st := populate(t, db, 2, 4, 20)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}

	const iters = 60
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_, _, _ = db.Query(nil, Query{Set: "Emp1", Where: &Pred{Expr: "dept.name", Op: OpEQ, Value: str("dept-01")}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_, _, _ = db.UpdateWhere(nil, "Dept",
				Pred{Expr: "name", Op: OpEQ, Value: str("dept-02")},
				map[string]schema.Value{"name": str("dept-02")})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = db.Update("Dept", st.depts[i%len(st.depts)], map[string]schema.Value{"budget": num(int64(i))})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rep := db.Advise()
			if !rep.Enabled {
				t.Error("advisor disabled mid-run")
				return
			}
		}
	}()
	wg.Wait()

	rec := findRec(t, db.Advise(), "Emp1.dept.name")
	if rec.Reads == 0 || rec.Updates == 0 {
		t.Fatalf("concurrent workload not aggregated: %+v", rec)
	}
}
