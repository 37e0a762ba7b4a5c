package plan

import (
	"fmt"
	"strings"
	"testing"
)

// text is a PredInfo.Detail that renders as itself.
type text string

func (t text) String() string { return string(t) }

// detail builds a PredInfo.Detail from the predicate's rendered text.
func detail(s string) fmt.Stringer { return text(s) }

func baseInput() Input {
	return Input{
		Source: SetStats{Set: "Emp", Pages: 200, Card: 20000, PerPage: 100, Exact: true},
		Where:  &PredInfo{Expr: "salary", Op: "between", Detail: detail("salary between a and b"), Selectivity: 0.25},
		Index:  &IndexInfo{Name: "bysal", Expr: "salary", Height: 2, LeafPages: 100, Entries: 20000},
	}
}

// A wide unclustered range over a large set must fall back to the scan: the
// Yao fetch alone approaches the whole file, and the scan reads it exactly
// once.
func TestWideUnclusteredRangePicksScan(t *testing.T) {
	d := Choose(baseInput())
	if d.Access != SeqScan {
		t.Fatalf("access = %v, want seq-scan\n%s", d.Access, d.Render())
	}
	if len(d.Candidates) != 2 {
		t.Fatalf("candidates = %d, want 2 (scan + rejected index)", len(d.Candidates))
	}
	var rejected *Candidate
	for i := range d.Candidates {
		if !d.Candidates[i].Chosen {
			rejected = &d.Candidates[i]
		}
	}
	if rejected == nil || rejected.Access != IndexRange {
		t.Fatalf("expected a rejected index candidate, got %+v", d.Candidates)
	}
	if !strings.Contains(d.Render(), "index-range(bysal)              227.0 pages  rejected: ") {
		t.Fatalf("index candidate not rendered as rejected:\n%s", d.Render())
	}
	if d.Label() != "scan" {
		t.Fatalf("label = %q, want scan", d.Label())
	}
}

// The same wide range through a clustered index touches only the qualifying
// quarter of the file and wins.
func TestClusteringFlipsToIndex(t *testing.T) {
	in := baseInput()
	in.Index.Clustered = true
	d := Choose(in)
	if d.Access != IndexRange {
		t.Fatalf("access = %v, want index-range\n%s", d.Access, d.Render())
	}
	if d.Label() != "index:bysal" {
		t.Fatalf("label = %q", d.Label())
	}
}

// Dropping the index removes the candidate entirely.
func TestNoIndexLeavesOnlyScan(t *testing.T) {
	in := baseInput()
	in.Index = nil
	d := Choose(in)
	if d.Access != SeqScan || len(d.Candidates) != 1 {
		t.Fatalf("access = %v candidates = %d, want lone seq-scan", d.Access, len(d.Candidates))
	}
	if !strings.HasSuffix(d.Render(), " pages  only access path") {
		t.Fatalf("lone scan not rendered as the only access path:\n%s", d.Render())
	}
}

// A selective point probe picks the index even unclustered.
func TestPointProbePicksIndex(t *testing.T) {
	in := baseInput()
	in.Where = &PredInfo{Expr: "salary", Op: "=", Detail: detail("salary = x"), Selectivity: 1.0 / 20000}
	d := Choose(in)
	if d.Access != IndexRange {
		t.Fatalf("access = %v, want index-range\n%s", d.Access, d.Render())
	}
}

// Skewing cardinality down flips the wide range back to the index: on a
// small set the index costs a handful of pages and sits inside the margin.
func TestCardinalitySkewFlipsAccessPath(t *testing.T) {
	in := baseInput()
	big := Choose(in)
	in.Source = SetStats{Set: "Emp", Pages: 2, Card: 50, PerPage: 25, Exact: true}
	in.Index.Height = 1
	in.Index.LeafPages = 1
	in.Index.Entries = 50
	small := Choose(in)
	if big.Access != SeqScan || small.Access != IndexRange {
		t.Fatalf("big = %v small = %v, want scan then index", big.Access, small.Access)
	}
}

// ForceScan pins the scan regardless of cost and records why.
func TestForceScan(t *testing.T) {
	in := baseInput()
	in.Index.Clustered = true
	in.ForceScan = true
	d := Choose(in)
	if d.Access != SeqScan {
		t.Fatalf("access = %v, want seq-scan", d.Access)
	}
	if !strings.Contains(d.Render(), "* seq-scan                          200 pages  forced: ForceScan set") {
		t.Fatalf("scan not rendered as forced:\n%s", d.Render())
	}
}

// Replicating the path removes its traversal cost: an in-place replicated
// path predicate costs the same as a plain field, while the unreplicated
// fused walk pays (capped) traversal pages.
func TestReplicationRemovesTraversalCost(t *testing.T) {
	in := baseInput()
	in.Index = nil
	in.Paths = []PathExpr{{Expr: "dept.org.name", Kind: PathFused, Levels: 2, LevelPages: 30, Filter: true}}
	fused := Choose(in)
	in.Paths = []PathExpr{{Expr: "dept.org.name", Kind: PathInPlace, Filter: true}}
	repl := Choose(in)
	if repl.PredictedPages >= fused.PredictedPages {
		t.Fatalf("replicated cost %.1f not below fused cost %.1f", repl.PredictedPages, fused.PredictedPages)
	}
	if fused.PredictedPages != in.Source.Pages+30 {
		t.Fatalf("fused cost = %.1f, want scan 200 + capped traversal 30", fused.PredictedPages)
	}
	if len(fused.Fused) != 1 || fused.Fused[0] != "dept.org.name" {
		t.Fatalf("fused exprs = %v", fused.Fused)
	}
	if len(repl.Fused) != 0 {
		t.Fatalf("replicated plan unexpectedly fused: %v", repl.Fused)
	}
}

// The fused traversal's memo caps its cost at the target sets' total pages;
// the unfused per-record walk does not.
func TestFusionCapsTraversalPages(t *testing.T) {
	p := PathExpr{Expr: "dept.org.name", Kind: PathFused, Levels: 2, LevelPages: 30}
	if got := pathCost(p, 10000); got != 30 {
		t.Fatalf("fused cost = %.1f, want memo cap 30", got)
	}
	p.LevelPages = 0 // unknown target size: no cap
	if got := pathCost(p, 10000); got != 20000 {
		t.Fatalf("uncapped cost = %.1f, want 20000", got)
	}
}

// Workers > 1 yields the scan-parallel trace label but identical page cost.
func TestParallelScanLabel(t *testing.T) {
	in := baseInput()
	in.Index = nil
	serial := Choose(in)
	in.Workers = 4
	par := Choose(in)
	if par.Label() != "scan-parallel" || serial.Label() != "scan" {
		t.Fatalf("labels = %q / %q", serial.Label(), par.Label())
	}
	if par.PredictedPages != serial.PredictedPages {
		t.Fatalf("parallel cost %.1f != serial %.1f", par.PredictedPages, serial.PredictedPages)
	}
}

// Render output names the operators, both candidates, and the prediction;
// RenderObserved appends the observed count.
func TestRender(t *testing.T) {
	in := baseInput()
	in.Index.Clustered = true
	in.Paths = []PathExpr{{Expr: "dept.name", Kind: PathFused, Levels: 1, LevelPages: 5}}
	d := Choose(in)
	txt := d.RenderObserved(57)
	for _, want := range []string{
		"index-range(bysal)", "fetch(Emp)", "fused-join(dept.name)",
		"candidates:", "seq-scan", "observed=57 pages", "predicted=",
	} {
		if !strings.Contains(txt, want) {
			t.Fatalf("render missing %q:\n%s", want, txt)
		}
	}
	if strings.Contains(d.Render(), "observed=") {
		t.Fatalf("Render without observation mentions observed:\n%s", d.Render())
	}
}

// Tiny sets stay on the index: the margin tie-break keeps point/range
// queries on freshly built indexes even when the whole set fits in a page.
func TestTinySetStaysOnIndex(t *testing.T) {
	in := Input{
		Source: SetStats{Set: "S", Pages: 1, Card: 3, PerPage: 3, Exact: true},
		Where:  &PredInfo{Expr: "sal", Op: "between", Detail: detail("sal between a and b"), Selectivity: 0.25},
		Index:  &IndexInfo{Name: "sal", Expr: "sal", Height: 1, LeafPages: 1, Entries: 3},
	}
	d := Choose(in)
	if d.Access != IndexRange {
		t.Fatalf("access = %v, want index-range\n%s", d.Access, d.Render())
	}
}
