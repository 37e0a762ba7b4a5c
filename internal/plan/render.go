package plan

import (
	"fmt"
	"strings"

	"github.com/exodb/fieldrepl/internal/costmodel"
)

// Render returns the human-readable plan text: the chosen operator pipeline
// followed by every costed candidate with its selection or rejection reason.
func (d *Decision) Render() string {
	return d.render(-1)
}

// RenderObserved renders the plan with the observed page count from the
// executed operation's trace paired against the prediction.
func (d *Decision) RenderObserved(observed int64) string {
	return d.render(observed)
}

func (d *Decision) render(observed int64) string {
	if d == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s on %s", d.AccessStr, d.Set)
	if d.Index != "" {
		fmt.Fprintf(&b, " via %s (%s)", d.Index, clusteredStr(d.Clustered))
	}
	if d.Parallel {
		b.WriteString(" [parallel]")
	}
	fmt.Fprintf(&b, "  est_rows=%s", num(d.EstRows))
	if observed >= 0 {
		fmt.Fprintf(&b, "  predicted=%s pages observed=%d pages", num(d.PredictedPages), observed)
	} else {
		fmt.Fprintf(&b, "  predicted=%s pages", num(d.PredictedPages))
	}
	b.WriteByte('\n')
	for _, op := range d.operators() {
		fmt.Fprintf(&b, "  -> %s", op.name)
		if op.detail != "" {
			fmt.Fprintf(&b, " [%s]", op.detail)
		}
		fmt.Fprintf(&b, "  (%s pages)\n", num(op.pages))
	}
	b.WriteString("candidates:\n")
	for i, c := range d.Candidates {
		mark := " "
		if c.Chosen {
			mark = "*"
		}
		name := c.Access.String()
		if c.Index != "" {
			name += "(" + c.Index + ")"
		}
		fmt.Fprintf(&b, "  %s %-28s %8s pages  %s\n", mark, name, num(c.Pages), d.reason(i))
	}
	return strings.TrimRight(b.String(), "\n")
}

// reason explains why candidate i was chosen or rejected.
func (d *Decision) reason(i int) string {
	if d.in.ForceScan {
		if i == 0 {
			return "forced: ForceScan set"
		}
		return "rejected: ForceScan set"
	}
	if len(d.Candidates) == 1 {
		return "only access path"
	}
	scan, idx := d.Candidates[0].Pages, d.Candidates[1].Pages
	switch {
	case i == 1 && d.Candidates[1].Chosen:
		return fmtPages("chosen: %s pages vs scan %s (index preferred within margin)", idx, scan)
	case i == 1:
		return fmtPages("rejected: %s pages vs scan %s (beyond %s-page index margin)", idx, scan, IndexMargin)
	case d.Candidates[0].Chosen:
		return fmtPages("chosen: %s pages vs index %s", scan, idx)
	default:
		return fmtPages("rejected: %s pages vs index %s", scan, idx)
	}
}

// operator is one step of the chosen plan.
type operator struct {
	name   string
	detail string
	pages  float64
}

// operators builds the chosen plan's operator pipeline.
func (d *Decision) operators() []operator {
	in := &d.in
	sel := in.selectivity()
	var ops []operator
	detail := ""
	if in.Where != nil && in.Where.Detail != nil {
		detail = in.Where.Detail.String()
	}
	if d.Access == IndexRange {
		ops = append(ops,
			operator{name: "index-range(" + d.Index + ")", detail: detail,
				pages: costmodel.IndexProbePages(in.Index.Height, in.Index.LeafPages, sel)},
			operator{name: "fetch(" + in.Source.Set + ")", detail: clusteredStr(in.Index.Clustered),
				pages: fetchPages(d.in, sel, d.EstRows)},
		)
	} else {
		name := "seq-scan(" + in.Source.Set + ")"
		if d.Parallel {
			name = "seq-scan-parallel(" + in.Source.Set + ")"
		}
		ops = append(ops, operator{name: name, detail: detail, pages: in.Source.Pages})
	}
	for _, p := range in.Paths {
		if p.Kind == PathPlain {
			continue
		}
		if p.Covered && d.Access == IndexRange {
			ops = append(ops, operator{name: p.Kind.String() + "(" + p.Expr + ")", detail: "covered by index keys"})
			continue
		}
		records := d.EstRows
		if p.Filter && d.Access == SeqScan {
			records = in.Source.Card
		}
		op := operator{name: p.Kind.String() + "(" + p.Expr + ")", pages: pathCost(p, records)}
		switch p.Kind {
		case PathInPlace:
			op.detail = "replicated in source object"
		case PathSeparate:
			op.detail = "one S′ fetch per record"
		case PathFused:
			op.detail = fmtLevels(p.Levels)
		}
		ops = append(ops, op)
	}
	if in.EmitPages > 0 {
		ops = append(ops, operator{name: "emit(output)", pages: in.EmitPages})
	}
	return ops
}

func clusteredStr(c bool) string {
	if c {
		return "clustered"
	}
	return "unclustered"
}

// num formats a page count compactly: integers without a decimal point,
// fractional predictions with one digit.
func num(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}

func fmtPages(format string, args ...float64) string {
	out := make([]interface{}, len(args))
	for i, a := range args {
		out[i] = num(a)
	}
	return fmt.Sprintf(strings.ReplaceAll(format, "%s", "%v"), out...)
}

func fmtLevels(n int) string {
	if n == 1 {
		return "1 level, memoized"
	}
	return fmt.Sprintf("%d levels, memoized", n)
}
