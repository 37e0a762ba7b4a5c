// Package exp regenerates every table and figure of the paper's evaluation
// (Section 6): the Figure 10 parameter table, the Figure 11/13 percentage-
// difference graphs, the Figure 12/14 selected-cost tables — all from the
// analytical model — plus an engine-measured validation that compares the
// running system's page I/O against the model's predictions.
package exp

import (
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/exodb/fieldrepl/internal/costmodel"
)

// paperFr are the read selectivities plotted in Figures 11 and 13.
var paperFr = []float64{0.001, 0.002, 0.005}

// paperF are the sharing levels of the four graphs in Figures 11 and 13.
var paperF = []float64{1, 10, 20, 50}

// Figure10Table renders the cost-model parameter table.
func Figure10Table() string {
	p := costmodel.Default()
	var sb strings.Builder
	sb.WriteString("Figure 10: The Parameters of the Cost Model\n\n")
	w := func(name, def, val string) {
		fmt.Fprintf(&sb, "  %-18s %-55s %s\n", name, def, val)
	}
	w("Parameter", "Definition", "Default")
	w("---------", "----------", "-------")
	w("B", "bytes in a disk page available for user data", fmt.Sprintf("%.0f bytes", p.B))
	w("h", "storage overhead per object (object header)", fmt.Sprintf("%.0f bytes", p.H))
	w("m", "B+tree fanout", fmt.Sprintf("%.0f", p.M))
	w("|S|", "number of objects in S", fmt.Sprintf("%.0f", p.SCount))
	w("f", "sharing level of objects in S", fmt.Sprintf("%.0f (varied)", p.F))
	w("f_r", "selectivity of the clause in read queries", fmt.Sprintf("%.3f (varied)", p.Fr))
	w("f_s", "selectivity of the clause in update queries", fmt.Sprintf("%.3f", p.Fs))
	w("sizeof(OID)", "size of OIDs", fmt.Sprintf("%.0f bytes", p.OIDSize))
	w("sizeof(link-ID)", "size of link IDs", fmt.Sprintf("%.0f byte", p.LinkIDSize))
	w("sizeof(type-tag)", "size of type-tags", fmt.Sprintf("%.0f bytes", p.TypeTagSize))
	w("k", "size of the replicated field, repfield", fmt.Sprintf("%.0f bytes", p.K))
	w("r", "size of objects in R (varies with strategy)", fmt.Sprintf("%.0f bytes", p.RSize))
	w("s", "size of objects in S (varies with strategy)", fmt.Sprintf("%.0f bytes", p.SSize))
	w("t", "size of objects in T", fmt.Sprintf("%.0f bytes", p.TSize))
	sb.WriteString("\n  Derived (no replication, f=1):\n")
	w("s'", "k + sizeof(type-tag)", fmt.Sprintf("%.0f bytes", p.K+p.TypeTagSize))
	w("l", "linkID + type-tag + f*OID", "11 bytes (f=1)")
	return sb.String()
}

// costTable renders a Figure 12/14-style table for the given setting.
func costTable(title string, setting costmodel.Setting) string {
	var sb strings.Builder
	sb.WriteString(title + "\n\n")
	fmt.Fprintf(&sb, "  %-24s | %8s %8s | %8s %8s\n", "", "f=1", "", "f=20", "")
	fmt.Fprintf(&sb, "  %-24s | %8s %8s | %8s %8s\n", "Strategy", "C_read", "C_update", "C_read", "C_update")
	fmt.Fprintf(&sb, "  %s\n", strings.Repeat("-", 70))
	for _, st := range []costmodel.Strategy{costmodel.NoReplication, costmodel.InPlace, costmodel.Separate} {
		cells := make([]float64, 0, 4)
		for _, f := range []float64{1, 20} {
			p := costmodel.Default()
			p.F = f
			p.Fr = 0.002
			cells = append(cells, math.Ceil(p.ReadCost(st, setting)), math.Ceil(p.UpdateCost(st, setting)))
		}
		fmt.Fprintf(&sb, "  %-24s | %8.0f %8.0f | %8.0f %8.0f\n", st, cells[0], cells[1], cells[2], cells[3])
	}
	sb.WriteString("\n  (f_r = .002; fractional values rounded up, as in the paper)\n")
	return sb.String()
}

// Figure12Table renders the unclustered selected-cost table.
func Figure12Table() string {
	return costTable("Figure 12: Selected Values for C_read and C_update (Unclustered Access)", costmodel.Unclustered)
}

// Figure14Table renders the clustered selected-cost table.
func Figure14Table() string {
	return costTable("Figure 14: Selected Values for C_read and C_update (Clustered Access)", costmodel.Clustered)
}

// Series is one plotted line: a strategy at one read selectivity.
type Series struct {
	Label    string
	Strategy costmodel.Strategy
	Fr       float64
	Values   []float64 // percentage difference per PUpdate point
}

// Sweep is one graph of Figure 11 or 13: the percentage difference in
// C_total versus update probability, at one sharing level.
type Sweep struct {
	Setting  costmodel.Setting
	F        float64
	RCount   float64
	PUpdates []float64
	Series   []Series
}

// NewSweep computes one graph's series.
func NewSweep(setting costmodel.Setting, f float64, steps int) Sweep {
	if steps < 2 {
		steps = 2
	}
	sw := Sweep{Setting: setting, F: f}
	for i := 0; i <= steps; i++ {
		sw.PUpdates = append(sw.PUpdates, float64(i)/float64(steps))
	}
	base := costmodel.Default()
	base.F = f
	sw.RCount = base.RCount()
	for _, st := range []costmodel.Strategy{costmodel.InPlace, costmodel.Separate} {
		for _, fr := range paperFr {
			p := costmodel.Default()
			p.F = f
			p.Fr = fr
			s := Series{
				Label:    fmt.Sprintf("%s fr=%.3f", shortName(st), fr),
				Strategy: st,
				Fr:       fr,
			}
			for _, pu := range sw.PUpdates {
				s.Values = append(s.Values, p.PercentDiff(st, setting, pu))
			}
			sw.Series = append(sw.Series, s)
		}
	}
	return sw
}

func shortName(st costmodel.Strategy) string {
	switch st {
	case costmodel.InPlace:
		return "in-place"
	case costmodel.Separate:
		return "separate"
	default:
		return "none"
	}
}

// Figure11 computes the four unclustered graphs.
func Figure11(steps int) []Sweep {
	out := make([]Sweep, 0, len(paperF))
	for _, f := range paperF {
		out = append(out, NewSweep(costmodel.Unclustered, f, steps))
	}
	return out
}

// Figure13 computes the four clustered graphs.
func Figure13(steps int) []Sweep {
	out := make([]Sweep, 0, len(paperF))
	for _, f := range paperF {
		out = append(out, NewSweep(costmodel.Clustered, f, steps))
	}
	return out
}

// Title renders the graph heading in the paper's style.
func (sw Sweep) Title() string {
	setting := "Unclustered"
	if sw.Setting == costmodel.Clustered {
		setting = "Clustered"
	}
	return fmt.Sprintf("%s Access, f = %.0f, |R| = %.0f", setting, sw.F, sw.RCount)
}

// CSV renders the sweep as comma-separated series, one row per update
// probability.
func (sw Sweep) CSV() string {
	var sb strings.Builder
	sb.WriteString("p_update")
	for _, s := range sw.Series {
		sb.WriteString("," + strings.ReplaceAll(s.Label, " ", "_"))
	}
	sb.WriteByte('\n')
	for i, pu := range sw.PUpdates {
		fmt.Fprintf(&sb, "%.3f", pu)
		for _, s := range sw.Series {
			fmt.Fprintf(&sb, ",%.2f", s.Values[i])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Figures are the names WriteFigures accepts, in the paper's order.
var Figures = []string{"10", "11", "12", "13", "14"}

// WriteFigures writes the named figures to w: tables as text, graph figures
// (11, 13) as ASCII plots, or as CSV series when csv is set, with steps
// update-probability steps. When more than one figure is asked for, each is
// followed by a blank line. An unknown name is an error.
func WriteFigures(w io.Writer, figs []string, csv bool, steps int) error {
	graphs := func(title string, sweeps []Sweep) {
		fmt.Fprintf(w, "%s\n\n", title)
		for _, sw := range sweeps {
			if csv {
				fmt.Fprintf(w, "# %s\n%s\n", sw.Title(), sw.CSV())
			} else {
				fmt.Fprintln(w, sw.ASCIIPlot())
			}
		}
	}
	for _, name := range figs {
		switch name {
		case "10":
			fmt.Fprintln(w, Figure10Table())
		case "11":
			graphs("Figure 11: Results for Unclustered Indexes", Figure11(steps))
		case "12":
			fmt.Fprintln(w, Figure12Table())
		case "13":
			graphs("Figure 13: Results for Clustered Indexes", Figure13(steps))
		case "14":
			fmt.Fprintln(w, Figure14Table())
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
		if len(figs) > 1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}
