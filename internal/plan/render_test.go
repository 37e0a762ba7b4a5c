package plan

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/render.golden from the current Render output")

// renderCases is a fixed table of planner inputs covering every branch of
// the rendered text: each candidate reason, each operator kind and detail,
// emit, parallel, and a query without a predicate.
func renderCases() []struct {
	name string
	in   Input
} {
	big := SetStats{Set: "Emp", Pages: 200, Card: 20000, PerPage: 100, Exact: true}
	tiny := SetStats{Set: "S", Pages: 1, Card: 3, PerPage: 3, Exact: true}
	wide := func() *PredInfo {
		return &PredInfo{Expr: "salary", Op: "between", Detail: detail("salary between 60000 and 64000"), Selectivity: 0.25}
	}
	point := func() *PredInfo {
		return &PredInfo{Expr: "salary", Op: "=", Detail: detail("salary = 61000"), Selectivity: 1.0 / 20000}
	}
	bysal := func(clustered bool) *IndexInfo {
		return &IndexInfo{Name: "bysal", Expr: "salary", Clustered: clustered, Height: 2, LeafPages: 100, Entries: 20000}
	}
	return []struct {
		name string
		in   Input
	}{
		{"scan chosen, index beyond margin", Input{Source: big, Where: wide(), Index: bysal(false)}},
		{"index cheaper", Input{Source: big, Where: wide(), Index: bysal(true)}},
		{"index within margin", Input{
			Source: tiny,
			Where:  &PredInfo{Expr: "sal", Op: "between", Detail: detail("sal between 1 and 2"), Selectivity: 0.25},
			Index:  &IndexInfo{Name: "sal", Expr: "sal", Height: 1, LeafPages: 1, Entries: 3},
		}},
		{"force scan", Input{Source: big, Where: wide(), Index: bysal(true), ForceScan: true}},
		{"only access path", Input{Source: big, Where: wide()}},
		{"no predicate", Input{Source: big}},
		{"in-place filter", Input{Source: big, Where: &PredInfo{Expr: "dept.name", Op: "=", Detail: detail(`dept.name = "Toy"`), Selectivity: 0.01},
			Paths: []PathExpr{{Expr: "dept.name", Kind: PathInPlace, Filter: true}}}},
		{"separate projection", Input{Source: big, Where: point(), Index: bysal(false),
			Paths: []PathExpr{{Expr: "dept.name", Kind: PathSeparate}}}},
		{"fused filter, two levels", Input{Source: big, Where: &PredInfo{Expr: "dept.org.name", Op: ">", Detail: detail(`dept.org.name > "M"`), Selectivity: 1.0 / 3},
			Paths: []PathExpr{{Expr: "dept.org.name", Kind: PathFused, Levels: 2, LevelPages: 30, Filter: true}}}},
		{"fused projection, one level", Input{Source: big, Where: point(), Index: bysal(true),
			Paths: []PathExpr{{Expr: "dept.name", Kind: PathFused, Levels: 1, LevelPages: 5}}}},
		{"covered path index", Input{Source: big,
			Where: &PredInfo{Expr: "dept.budget", Op: "=", Detail: detail("dept.budget = 7"), Selectivity: 1.0 / 20000},
			Index: &IndexInfo{Name: "bybudget", Expr: "dept.budget", Height: 3, LeafPages: 150, Entries: 20000},
			Paths: []PathExpr{
				{Expr: "dept.budget", Kind: PathFused, Levels: 1, LevelPages: 12, Filter: true, Covered: true},
				{Expr: "dept.name", Kind: PathInPlace},
			}}},
		{"emit", Input{Source: big, Where: wide(), Index: bysal(true), EmitPages: 50}},
		{"parallel", Input{Source: big, Where: wide(), Workers: 4,
			Paths: []PathExpr{{Expr: "dept.name", Kind: PathFused, Levels: 1, LevelPages: 5, Filter: true}}}},
	}
}

// TestRenderGolden pins Render and RenderObserved byte for byte. Regenerate
// with `go test ./internal/plan -run TestRenderGolden -update` only when the
// plan text is meant to change.
func TestRenderGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range renderCases() {
		d := Choose(c.in)
		b.WriteString("== " + c.name + " ==\n")
		b.WriteString(d.Render())
		b.WriteString("\n-- observed --\n")
		b.WriteString(d.RenderObserved(57))
		b.WriteString("\n\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "render.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("rendered plans differ from %s:\n%s", path, got)
	}
}
