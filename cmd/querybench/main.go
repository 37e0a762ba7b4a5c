// Command querybench measures the cost-based planner's four query shapes —
// point probe, index range, 3-level path query, and aggregate — against a
// record-at-a-time baseline, writing the results as JSON for tracking
// alongside the paper figures.
//
//	querybench -out BENCH_query.json
//	querybench -check          # exit non-zero unless the gates hold
//
// The dataset is the paper's three-level schema scaled up: 20,000 employees
// referencing 200 departments referencing 20 organizations, with a B-tree on
// Emp.salary. Each shape is compiled with DB.Plan, run once cold for its
// observed page count (paired with the planner's prediction in the JSON and
// in Plan.Explain), then timed warm. The 3-level path shape is also run with
// Query.NoFuse — the record-at-a-time functional-join baseline the paper's
// §2 cost analysis starts from — and the acceptance gate requires the fused
// execution to beat it by at least 2x without any replication declared.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	fieldrepl "github.com/exodb/fieldrepl"
)

const (
	nEmps  = 20000
	nDepts = 200
	nOrgs  = 20
)

type result struct {
	Shape          string  `json:"shape"`
	Access         string  `json:"access"`
	Rows           int     `json:"rows"`
	PredictedPages float64 `json:"predicted_pages"`
	ObservedPages  int64   `json:"observed_pages"`
	PlannedNs      int64   `json:"planned_ns"`
	BaselineMode   string  `json:"baseline_mode,omitempty"`
	BaselineNs     int64   `json:"baseline_ns,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_query.json", "write results to this file (- for stdout)")
	check := flag.Bool("check", false, "exit non-zero unless fused 3-level path queries beat the record-at-a-time baseline by 2x and every shape's Explain pairs predicted with observed pages")
	iters := flag.Int("iters", 7, "timed runs per shape (the minimum is reported)")
	flag.Parse()

	db, err := build()
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	shapes := []struct {
		name string
		q    fieldrepl.Query
	}{
		{"point", fieldrepl.Query{Set: "Emp", Project: []string{"name"},
			Where: &fieldrepl.Pred{Expr: "salary", Op: fieldrepl.EQ, Value: fieldrepl.I(12345)}}},
		{"range", fieldrepl.Query{Set: "Emp", Project: []string{"name", "salary"},
			Where: &fieldrepl.Pred{Expr: "salary", Op: fieldrepl.Between,
				Value: fieldrepl.I(5000), Value2: fieldrepl.I(5199)}}},
		{"path3", fieldrepl.Query{Set: "Emp", Project: []string{"name", "dept.org.name", "dept.org.budget"},
			Where: &fieldrepl.Pred{Expr: "dept.org.name", Op: fieldrepl.EQ, Value: fieldrepl.S("org-07")}}},
		{"aggregate", fieldrepl.Query{Set: "Emp", Project: []string{"salary"}}},
	}

	var results []result
	explains := map[string]string{}
	for _, s := range shapes {
		r, explain, err := measure(db, s.q, *iters)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s.name, err))
		}
		r.Shape = s.name
		explains[s.name] = explain

		if s.name == "path3" {
			// Record-at-a-time baseline: the identical query with the fusion
			// memo disabled, so every row re-traverses Emp -> Dept -> Org.
			base := s.q
			base.NoFuse = true
			rb, _, err := measure(db, base, *iters)
			if err != nil {
				fatal(fmt.Errorf("%s baseline: %w", s.name, err))
			}
			r.BaselineMode = "no-fuse"
			r.BaselineNs = rb.PlannedNs
			r.Speedup = float64(rb.PlannedNs) / float64(r.PlannedNs)
		}
		report(r)
		results = append(results, r)
	}

	if err := write(*out, results); err != nil {
		fatal(err)
	}

	if *check {
		failed := false
		for _, r := range results {
			if r.Shape == "path3" && r.Speedup < 2.0 {
				fmt.Fprintf(os.Stderr, "querybench: GATE FAILED: path3 fused speedup %.2fx < 2x over the record-at-a-time baseline\n", r.Speedup)
				failed = true
			}
			ex := explains[r.Shape]
			if !strings.Contains(ex, "predicted=") || !strings.Contains(ex, "observed=") {
				fmt.Fprintf(os.Stderr, "querybench: GATE FAILED: %s Explain does not pair predicted with observed pages:\n%s\n", r.Shape, ex)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("querybench: gates passed")
	}
}

// build creates the in-memory three-level dataset. No replication paths are
// declared: the path-query gate must hold on fusion alone.
func build() (*fieldrepl.DB, error) {
	db, err := fieldrepl.Open(fieldrepl.Config{PoolPages: 1024})
	if err != nil {
		return nil, err
	}
	type def struct {
		name   string
		fields []fieldrepl.Field
	}
	for _, d := range []def{
		{"ORG", []fieldrepl.Field{{Name: "name", Kind: fieldrepl.String}, {Name: "budget", Kind: fieldrepl.Int}}},
		{"DEPT", []fieldrepl.Field{{Name: "name", Kind: fieldrepl.String}, {Name: "budget", Kind: fieldrepl.Int}, {Name: "org", Kind: fieldrepl.Ref, RefType: "ORG"}}},
		{"EMP", []fieldrepl.Field{{Name: "name", Kind: fieldrepl.String}, {Name: "salary", Kind: fieldrepl.Int}, {Name: "dept", Kind: fieldrepl.Ref, RefType: "DEPT"}}},
	} {
		if err := db.DefineType(d.name, d.fields); err != nil {
			return nil, err
		}
	}
	for _, s := range [][2]string{{"Org", "ORG"}, {"Dept", "DEPT"}, {"Emp", "EMP"}} {
		if err := db.CreateSet(s[0], s[1]); err != nil {
			return nil, err
		}
	}
	orgs := make([]fieldrepl.OID, nOrgs)
	for i := range orgs {
		oid, err := db.Insert("Org", fieldrepl.V{
			"name": fieldrepl.S(fmt.Sprintf("org-%02d", i)), "budget": fieldrepl.I(int64(1000 * i))})
		if err != nil {
			return nil, err
		}
		orgs[i] = oid
	}
	depts := make([]fieldrepl.OID, nDepts)
	for i := range depts {
		oid, err := db.Insert("Dept", fieldrepl.V{
			"name":   fieldrepl.S(fmt.Sprintf("dept-%03d", i)),
			"budget": fieldrepl.I(int64(10 * i)), "org": fieldrepl.R(orgs[i%nOrgs])})
		if err != nil {
			return nil, err
		}
		depts[i] = oid
	}
	for i := 0; i < nEmps; i++ {
		if _, err := db.Insert("Emp", fieldrepl.V{
			"name":   fieldrepl.S(fmt.Sprintf("emp-%05d", i)),
			"salary": fieldrepl.I(int64(i)), "dept": fieldrepl.R(depts[i%nDepts])}); err != nil {
			return nil, err
		}
	}
	if err := db.BuildIndex("bysal", "Emp", "salary", false); err != nil {
		return nil, err
	}
	return db, nil
}

// measure compiles q, runs it once from a cold cache (pairing the planner's
// prediction with observed pages), then times warm runs and reports the
// minimum.
func measure(db *fieldrepl.DB, q fieldrepl.Query, iters int) (result, string, error) {
	ctx := context.Background()
	p, err := db.Plan(ctx, q)
	if err != nil {
		return result{}, "", err
	}
	if err := db.ColdCache(); err != nil {
		return result{}, "", err
	}
	res, err := p.Run(ctx)
	if err != nil {
		return result{}, "", err
	}
	r := result{
		Access:         p.Access(),
		Rows:           len(res.Rows),
		PredictedPages: p.PredictedPages(),
		ObservedPages:  p.ObservedPages(),
	}
	explain := p.Explain()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := p.Run(ctx); err != nil {
			return result{}, "", err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	r.PlannedNs = best.Nanoseconds()
	return r, explain, nil
}

func report(r result) {
	line := fmt.Sprintf("%-9s  access=%-11s rows=%-5d predicted=%.0f observed=%d pages  %v/op",
		r.Shape, r.Access, r.Rows, r.PredictedPages, r.ObservedPages, time.Duration(r.PlannedNs))
	if r.BaselineNs > 0 {
		line += fmt.Sprintf("  baseline(%s)=%v/op  speedup=%.2fx",
			r.BaselineMode, time.Duration(r.BaselineNs), r.Speedup)
	}
	fmt.Println(line)
}

func write(path string, results []result) error {
	js, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(js)
		return err
	}
	return os.WriteFile(path, js, 0o644)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "querybench: %v\n", err)
	os.Exit(1)
}
