//go:build gates

package engine

import (
	"runtime"
	"sort"
	"testing"
	"time"
)

const gates = true

// At gate scale the convergence test replays 64-op windows over 2,000
// employees sharing 1,000 departments, where the read- and update-heavy
// optima differ.
var advisorScale = struct{ windowOps, orgs, depts, emps int }{64, 4, 1000, 2000}

// TestAdvisorOverhead is the advisory-overhead gate: the whole advisor
// pipeline (trace stamping, the registry subscription, windowed aggregation,
// drift histograms) must cost at most 5% of the same warm dotted-path
// queries on an equally populated database with AdvisorDisabled. The dotted
// predicate is the worst case: every query stamps path keys and feeds both
// the mix aggregation and the drift histograms. Each of 30 rounds runs 20
// queries on each database back to back, alternating which goes first, after
// a collection that keeps a GC cycle from landing on one side only; the gate
// is the median advised/disabled ratio.
func TestAdvisorOverhead(t *testing.T) {
	const rounds, perRound = 30, 20
	base := openEmployeeDB(t, Config{AdvisorDisabled: true})
	advised := openEmployeeDB(t, Config{})
	for _, db := range []*DB{base, advised} {
		populate(t, db, advisorScale.orgs, advisorScale.depts, advisorScale.emps)
	}
	q := Query{Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "dept.name", Op: OpEQ, Value: str("dept-01")}}
	round := func(db *DB) time.Duration {
		start := time.Now()
		for i := 0; i < perRound; i++ {
			if _, _, err := db.Query(nil, q); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	round(base)
	round(advised)
	ratios := make([]float64, rounds)
	for i := range ratios {
		runtime.GC()
		var b, a time.Duration
		if i%2 == 0 {
			b, a = round(base), round(advised)
		} else {
			a, b = round(advised), round(base)
		}
		ratios[i] = float64(a) / float64(b)
	}
	sort.Float64s(ratios)
	overhead := 100 * ((ratios[rounds/2-1]+ratios[rounds/2])/2 - 1)
	t.Logf("advisory overhead %+.2f%% of %d-employee dotted-path queries (limit 5%%)", overhead, advisorScale.emps)
	if overhead > 5 {
		t.Fatalf("the advisor costs %.2f%% of the same queries with it disabled, limit 5%%", overhead)
	}
}
