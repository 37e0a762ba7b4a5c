package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/exodb/fieldrepl/internal/costmodel"
	"github.com/exodb/fieldrepl/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current WriteFigures and WriteValidation output")

// TestFiguresGolden pins `figures -fig all` and `figures -fig all -csv` byte
// for byte. Regenerate with `go test ./internal/exp -update` only when the
// figures are meant to change.
func TestFiguresGolden(t *testing.T) {
	for _, c := range []struct {
		file string
		csv  bool
	}{{"figures.golden", false}, {"figures_csv.golden", true}} {
		var b strings.Builder
		if err := WriteFigures(&b, Figures, c.csv, 40); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.file, b.String())
	}
	if err := WriteFigures(&strings.Builder{}, []string{"15"}, false, 40); err == nil {
		t.Error("unknown figure accepted")
	}
}

// checkGolden compares got with testdata/file, rewriting the file first
// under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
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
		t.Errorf("output differs from %s; rerun with -update if that is intended", path)
	}
}

// TestValidateGolden pins `validate`, `validate -nlevel` and `validate
// -space` at their defaults byte for byte: every page count the engine
// measures for the cost model's database, per strategy, sharing level and
// clustering. A change meant to leave page I/O alone must leave these files
// unchanged. The three runs take a few seconds each, so -short skips them.
func TestValidateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the validation databases; skipped under -short")
	}
	for _, c := range []struct {
		file          string
		nlevel, space bool
	}{{"validate.golden", false, false}, {"validate_nlevel.golden", true, false}, {"validate_space.golden", false, true}} {
		t.Run(c.file, func(t *testing.T) {
			t.Parallel()
			var b strings.Builder
			run := ValidationRun{SCount: 2000, Fs: []int{1, 5, 10}, Fr: 0.01, Fsel: 0.005, Queries: 5, Seed: 1,
				NLevel: c.nlevel, Space: c.space}
			if err := WriteValidation(&b, run); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.file, b.String())
		})
	}
}

func TestFigure10Table(t *testing.T) {
	out := Figure10Table()
	for _, want := range []string{"4056", "350", "10000", "20 bytes", "B+tree fanout"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 10 table lacks %q:\n%s", want, out)
		}
	}
}

func TestFigureTablesContainPaperValues(t *testing.T) {
	out12 := Figure12Table()
	for _, want := range []string{"43", "691", "407", "427", "509"} {
		if !strings.Contains(out12, want) {
			t.Errorf("Figure 12 table lacks %q:\n%s", want, out12)
		}
	}
	out14 := Figure14Table()
	for _, want := range []string{"24", "316", "400", "133"} {
		if !strings.Contains(out14, want) {
			t.Errorf("Figure 14 table lacks %q:\n%s", want, out14)
		}
	}
}

func TestSweepSeries(t *testing.T) {
	sw := NewSweep(costmodel.Unclustered, 20, 20)
	if len(sw.Series) != 6 {
		t.Fatalf("series = %d, want 6 (2 strategies x 3 selectivities)", len(sw.Series))
	}
	if len(sw.PUpdates) != 21 {
		t.Fatalf("points = %d", len(sw.PUpdates))
	}
	for _, s := range sw.Series {
		if len(s.Values) != len(sw.PUpdates) {
			t.Fatalf("series %s has %d values", s.Label, len(s.Values))
		}
		// At P=0 every replication strategy is beneficial at f=20.
		if s.Values[0] >= 0 {
			t.Errorf("series %s starts at %v, expected negative", s.Label, s.Values[0])
		}
		// In-place must end up positive (expensive) at P=1, f=20.
		if s.Strategy == costmodel.InPlace && s.Values[len(s.Values)-1] <= 0 {
			t.Errorf("series %s ends at %v, expected positive", s.Label, s.Values[len(s.Values)-1])
		}
	}
	if sw.RCount != 200000 {
		t.Fatalf("|R| = %v", sw.RCount)
	}
	if !strings.Contains(sw.Title(), "f = 20") {
		t.Fatalf("title = %q", sw.Title())
	}
}

func TestFigureSweepSets(t *testing.T) {
	f11 := Figure11(10)
	f13 := Figure13(10)
	if len(f11) != 4 || len(f13) != 4 {
		t.Fatalf("figure sweeps = %d, %d; want 4 graphs each", len(f11), len(f13))
	}
	// Clustered savings are larger: compare in-place fr=.002 at P=0.1, f=10.
	idx := 1  // series order: inplace .001, inplace .002, ...
	pidx := 1 // P = 0.1 with 10 steps
	if f13[1].Series[idx].Values[pidx] >= f11[1].Series[idx].Values[pidx] {
		t.Errorf("clustered diff %v not below unclustered %v",
			f13[1].Series[idx].Values[pidx], f11[1].Series[idx].Values[pidx])
	}
}

func TestASCIIPlotAndCSV(t *testing.T) {
	sw := NewSweep(costmodel.Clustered, 10, 20)
	plot := sw.ASCIIPlot()
	for _, want := range []string{"Clustered Access, f = 10", "Update Probability", "legend:", "i=", "S="} {
		if !strings.Contains(plot, want) {
			t.Errorf("plot lacks %q", want)
		}
	}
	lines := strings.Split(plot, "\n")
	if len(lines) < plotHeight {
		t.Fatalf("plot has %d lines", len(lines))
	}
	csv := sw.CSV()
	if !strings.HasPrefix(csv, "p_update,") {
		t.Fatalf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if rows := strings.Count(csv, "\n"); rows != 22 { // header + 21 points
		t.Fatalf("csv rows = %d", rows)
	}
}

// TestValidateShapes runs the engine-vs-model comparison at a small scale
// and asserts the paper's shape claims hold in the measurements, and that
// measured values are within a factor of the model's predictions.
func TestValidateShapes(t *testing.T) {
	rows, err := Validate(ValidationSpec{SCount: 400, F: 6, Fr: 0.01, Fs: 0.005, Queries: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byStrat := map[workload.Strategy]ValidationRow{}
	for _, r := range rows {
		byStrat[r.Strategy] = r
	}
	none, inp, sep := byStrat[workload.NoReplication], byStrat[workload.InPlace], byStrat[workload.Separate]
	// Reads: in-place <= separate < none in measurement (at this small scale
	// in-place and separate can land within a page or two of each other).
	if !(inp.ReadMeasured <= sep.ReadMeasured+2 && sep.ReadMeasured < none.ReadMeasured && inp.ReadMeasured < none.ReadMeasured) {
		t.Errorf("measured read ordering: %v %v %v", inp.ReadMeasured, sep.ReadMeasured, none.ReadMeasured)
	}
	if !(inp.ReadModel < sep.ReadModel && sep.ReadModel < none.ReadModel) {
		t.Errorf("model read ordering: %v %v %v", inp.ReadModel, sep.ReadModel, none.ReadModel)
	}
	// Updates: none < separate < in-place.
	if !(none.UpdateMeasured < sep.UpdateMeasured && sep.UpdateMeasured < inp.UpdateMeasured) {
		t.Errorf("measured update ordering: %v %v %v", none.UpdateMeasured, sep.UpdateMeasured, inp.UpdateMeasured)
	}
	// Measured within a factor of the model (the engine is not the model's
	// idealized machine, but it is the same order of magnitude).
	for _, r := range rows {
		if ratio := r.ReadMeasured / r.ReadModel; ratio < 0.3 || ratio > 3 {
			t.Errorf("%v read ratio measured/model = %.2f", r.Strategy, ratio)
		}
	}
	out := FormatValidation(rows)
	if !strings.Contains(out, "in-place") || !strings.Contains(out, "read meas.") {
		t.Errorf("FormatValidation output:\n%s", out)
	}
}

func TestMeasureSpace(t *testing.T) {
	rows, err := MeasureSpace(400, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	none, inp, sep := rows[0], rows[1], rows[2]
	if none.LinkPages != 0 || none.SPrimePages != 0 {
		t.Fatalf("baseline has auxiliary storage: %+v", none)
	}
	// In-place widens R (hidden values); separate adds the S′ file.
	if inp.RPages <= none.RPages {
		t.Fatalf("in-place did not widen R: %d vs %d", inp.RPages, none.RPages)
	}
	if sep.SPrimePages == 0 {
		t.Fatalf("separate has no S′ pages: %+v", sep)
	}
	// Overheads are positive but modest (the paper's assumption that the
	// space cost is tolerable).
	for _, r := range rows[1:] {
		ov := r.Overhead(none)
		if ov <= 0 || ov > 60 {
			t.Fatalf("%v overhead = %.1f%%, outside sanity band", r.Strategy, ov)
		}
	}
	out := FormatSpace(rows)
	if !strings.Contains(out, "overhead") {
		t.Fatalf("FormatSpace output:\n%s", out)
	}
}

func TestValidateTwoLevel(t *testing.T) {
	rows, err := ValidateTwoLevel(2000, 5, 4, 0.01, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Model and measurement agree on the ordering and roughly on magnitude.
	for _, r := range rows {
		if ratio := r.ReadMeasured / r.ReadModel; ratio < 0.3 || ratio > 3 {
			t.Errorf("%v: measured/model = %.2f (%v / %v)", r.Strategy, ratio, r.ReadMeasured, r.ReadModel)
		}
	}
	// At this scale in-place and separate can tie within a page or two.
	if !(rows[1].ReadMeasured <= rows[2].ReadMeasured+2 && rows[2].ReadMeasured < rows[0].ReadMeasured && rows[1].ReadMeasured < rows[0].ReadMeasured) {
		t.Errorf("measured ordering: %+v", rows)
	}
	if !(rows[1].ReadModel < rows[2].ReadModel && rows[2].ReadModel < rows[0].ReadModel) {
		t.Errorf("model ordering: %+v", rows)
	}
	out := FormatNLevel(rows, 2000, 5, 4)
	if !strings.Contains(out, "2-level path validation") {
		t.Errorf("FormatNLevel:\n%s", out)
	}
}
