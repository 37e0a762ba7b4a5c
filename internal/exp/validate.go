package exp

import (
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/exodb/fieldrepl/internal/costmodel"
	"github.com/exodb/fieldrepl/internal/workload"
)

// ValidationRow compares the analytical model against the running engine for
// one (strategy, setting) cell.
type ValidationRow struct {
	Strategy       workload.Strategy
	Clustered      bool
	F              int
	SCount         int
	ReadModel      float64
	ReadMeasured   float64
	UpdateModel    float64
	UpdateMeasured float64
}

// modelStrategy maps a workload strategy onto the model's.
func modelStrategy(s workload.Strategy) costmodel.Strategy {
	switch s {
	case workload.InPlace:
		return costmodel.InPlace
	case workload.Separate:
		return costmodel.Separate
	default:
		return costmodel.NoReplication
	}
}

// ValidationSpec scopes an engine-vs-model validation run.
type ValidationSpec struct {
	SCount    int
	F         int
	Fr, Fs    float64
	Clustered bool
	Queries   int // queries averaged per measurement
	Seed      int64
}

// ValidationRun is one `validate` invocation: the engine-vs-model tables for
// each sharing level in Fs, unclustered then clustered, and optionally the
// n-level and §4.2 space tables for the same levels.
type ValidationRun struct {
	SCount        int
	Fs            []int
	Fr, Fsel      float64 // read and update query selectivities
	Queries       int
	Seed          int64
	NLevel, Space bool
}

// WriteValidation runs r and writes its tables to w, each followed by a
// blank line, as cmd/validate prints them.
func WriteValidation(w io.Writer, r ValidationRun) error {
	for _, clustered := range []bool{false, true} {
		for _, f := range r.Fs {
			rows, err := Validate(ValidationSpec{
				SCount: r.SCount, F: f, Fr: r.Fr, Fs: r.Fsel,
				Clustered: clustered, Queries: r.Queries, Seed: r.Seed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(w, FormatValidation(rows))
		}
	}
	if r.NLevel {
		for _, f := range r.Fs {
			rows, err := ValidateTwoLevel(r.SCount*f, f, 4, r.Fr, r.Queries, r.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, FormatNLevel(rows, r.SCount*f, f, 4))
		}
	}
	if r.Space {
		for _, f := range r.Fs {
			rows, err := MeasureSpace(r.SCount, f, r.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, FormatSpace(rows))
		}
	}
	return nil
}

// Validate builds the model database at the spec's scale for each strategy,
// measures average read- and update-query page I/O on the engine, and pairs
// the measurements with the analytical predictions at the same parameters.
func Validate(spec ValidationSpec) ([]ValidationRow, error) {
	if spec.Queries == 0 {
		spec.Queries = 5
	}
	if spec.Fr == 0 {
		spec.Fr = 0.01
	}
	if spec.Fs == 0 {
		spec.Fs = 0.005
	}
	var rows []ValidationRow
	for _, strat := range []workload.Strategy{workload.NoReplication, workload.InPlace, workload.Separate} {
		b, err := workload.Build(workload.Spec{
			SCount: spec.SCount, F: spec.F,
			Clustered: spec.Clustered, Strategy: strat, Seed: spec.Seed,
		})
		if err != nil {
			return nil, err
		}
		read, err := b.AvgReadIO(spec.Queries, spec.Fr)
		if err != nil {
			b.Close()
			return nil, err
		}
		upd, err := b.AvgUpdateIO(spec.Queries, spec.Fs)
		if err != nil {
			b.Close()
			return nil, err
		}
		b.Close()

		p := costmodel.Default()
		p.SCount = float64(spec.SCount)
		p.F = float64(spec.F)
		p.Fr, p.Fs = spec.Fr, spec.Fs
		setting := costmodel.Unclustered
		if spec.Clustered {
			setting = costmodel.Clustered
		}
		st := modelStrategy(strat)
		rows = append(rows, ValidationRow{
			Strategy:       strat,
			Clustered:      spec.Clustered,
			F:              spec.F,
			SCount:         spec.SCount,
			ReadModel:      math.Ceil(p.ReadCost(st, setting)),
			ReadMeasured:   read,
			UpdateModel:    math.Ceil(p.UpdateCost(st, setting)),
			UpdateMeasured: upd,
		})
	}
	return rows, nil
}

// FormatValidation renders validation rows as a text table.
func FormatValidation(rows []ValidationRow) string {
	var sb strings.Builder
	if len(rows) == 0 {
		return "(no rows)\n"
	}
	setting := "unclustered"
	if rows[0].Clustered {
		setting = "clustered"
	}
	fmt.Fprintf(&sb, "Engine vs model (|S|=%d, f=%d, %s indexes)\n\n", rows[0].SCount, rows[0].F, setting)
	fmt.Fprintf(&sb, "  %-10s | %11s %11s | %11s %11s\n", "strategy", "read model", "read meas.", "upd model", "upd meas.")
	fmt.Fprintf(&sb, "  %s\n", strings.Repeat("-", 64))
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s | %11.0f %11.1f | %11.0f %11.1f\n",
			r.Strategy, r.ReadModel, r.ReadMeasured, r.UpdateModel, r.UpdateMeasured)
	}
	return sb.String()
}

// SpaceRow reports the storage footprint of one strategy at one sharing
// level: the paper's §4.2 space-overhead discussion, measured. The Fwd counts
// are the records of each file whose body sits behind a forwarding stub, each
// of which costs a second page to read: objects widened after they were
// placed (R and S, inherent to physical OIDs) and — before the sorted build —
// link objects grown one referrer at a time.
type SpaceRow struct {
	Strategy    workload.Strategy
	F           int
	RPages      uint32
	SPages      uint32
	LinkPages   uint32
	SPrimePages uint32
	RFwd        int
	SFwd        int
	LinkFwd     int
	SPrimeFwd   int
}

// Overhead returns the auxiliary+widening storage relative to the
// no-replication R+S footprint, in percent. base is the no-replication row.
func (r SpaceRow) Overhead(base SpaceRow) float64 {
	baseTotal := float64(base.RPages + base.SPages)
	total := float64(r.RPages + r.SPages + r.LinkPages + r.SPrimePages)
	return 100 * (total - baseTotal) / baseTotal
}

// MeasureSpace builds the model database per strategy and reports page
// footprints and forwarded-record counts.
func MeasureSpace(sCount, f int, seed int64) ([]SpaceRow, error) {
	var rows []SpaceRow
	for _, strat := range []workload.Strategy{workload.NoReplication, workload.InPlace, workload.Separate} {
		b, err := workload.Build(workload.Spec{SCount: sCount, F: f, Strategy: strat, Seed: seed})
		if err != nil {
			return nil, err
		}
		row := SpaceRow{Strategy: strat, F: f}
		if st, err := b.DB.SetStats("R"); err == nil {
			row.RPages, row.RFwd = st.Pages, st.Forwarded
		}
		if st, err := b.DB.SetStats("S"); err == nil {
			row.SPages, row.SFwd = st.Pages, st.Forwarded
		}
		storage, err := b.DB.ReplicationStorage()
		if err != nil {
			b.Close()
			return nil, err
		}
		for _, st := range storage {
			row.LinkPages += st.LinkPages
			row.SPrimePages += st.SPrimePages
			row.LinkFwd += st.LinkForwarded
			row.SPrimeFwd += st.SPrimeForwarded
		}
		b.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSpace renders space rows as a text table.
func FormatSpace(rows []SpaceRow) string {
	var sb strings.Builder
	if len(rows) == 0 {
		return "(no rows)\n"
	}
	fmt.Fprintf(&sb, "Space overhead (paper §4.2), f=%d\n\n", rows[0].F)
	fmt.Fprintf(&sb, "  %-10s | %7s %7s %7s %7s | %9s | %s\n", "strategy", "R pgs", "S pgs", "link", "S'", "overhead", "fwd R/S/link/S'")
	fmt.Fprintf(&sb, "  %s\n", strings.Repeat("-", 82))
	base := rows[0]
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s | %7d %7d %7d %7d | %8.1f%% | %d/%d/%d/%d\n",
			r.Strategy, r.RPages, r.SPages, r.LinkPages, r.SPrimePages, r.Overhead(base), r.RFwd, r.SFwd, r.LinkFwd, r.SPrimeFwd)
	}
	return sb.String()
}

// NLevelRow compares the n-level model extension against a measured 2-level
// read query.
type NLevelRow struct {
	Strategy     workload.Strategy
	ReadModel    float64
	ReadMeasured float64
}

// ValidateTwoLevel measures 2-level read queries per strategy and pairs them
// with the n-level analytical extension at the same parameters.
func ValidateTwoLevel(rCount, f, g int, fr float64, queries int, seed int64) ([]NLevelRow, error) {
	if queries == 0 {
		queries = 3
	}
	var rows []NLevelRow
	for _, strat := range []workload.Strategy{workload.NoReplication, workload.InPlace, workload.Separate} {
		b, err := workload.BuildTwoLevel(workload.TwoLevelSpec{
			RCount: rCount, F: f, G: g, Strategy: strat, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		meas, err := b.AvgReadIO(queries, fr)
		if err != nil {
			b.Close()
			return nil, err
		}
		b.Close()

		np := costmodel.DefaultNLevel(float64(rCount), float64(f), float64(g))
		np.Fr = fr
		model, err := np.NLevelReadCost(modelStrategy(strat))
		if err != nil {
			return nil, err
		}
		rows = append(rows, NLevelRow{Strategy: strat, ReadModel: model, ReadMeasured: meas})
	}
	return rows, nil
}

// FormatNLevel renders the 2-level validation as a text table.
func FormatNLevel(rows []NLevelRow, rCount, f, g int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "2-level path validation (|R|=%d, f=%d, g=%d): n-level model vs engine\n\n", rCount, f, g)
	fmt.Fprintf(&sb, "  %-10s | %11s %11s\n", "strategy", "read model", "read meas.")
	fmt.Fprintf(&sb, "  %s\n", strings.Repeat("-", 38))
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s | %11.0f %11.1f\n", r.Strategy, r.ReadModel, r.ReadMeasured)
	}
	return sb.String()
}
