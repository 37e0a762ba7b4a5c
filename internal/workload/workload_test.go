package workload

import (
	"testing"

	"github.com/exodb/fieldrepl/internal/engine"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

func build(t *testing.T, spec Spec) *Built {
	t.Helper()
	b, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestBuildCounts(t *testing.T) {
	b := build(t, Spec{SCount: 200, F: 3, Seed: 1})
	if n, _ := b.DB.Count("S"); n != 200 {
		t.Fatalf("|S| = %d", n)
	}
	if n, _ := b.DB.Count("R"); n != 600 {
		t.Fatalf("|R| = %d", n)
	}
	// Every S object is referenced exactly F times.
	counts := map[pagefile.OID]int{}
	res, _, err := b.DB.Query(nil, engine.Query{Set: "R", Project: []string{"sref"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		counts[row.Values[0].R]++
	}
	if len(counts) != 200 {
		t.Fatalf("distinct referenced S objects = %d", len(counts))
	}
	for oid, c := range counts {
		if c != 3 {
			t.Fatalf("S object %v referenced %d times, want 3", oid, c)
		}
	}
}

func TestObjectFootprintMatchesModel(t *testing.T) {
	// The model packs O_r = floor(B/(h+r)) objects per page; check the
	// generated R and S files are within one page of the model's count.
	b := build(t, Spec{SCount: 500, F: 2, Seed: 2})
	check := func(set string, count int, objSize float64) {
		t.Helper()
		perPage := int(4056 / (20 + objSize))
		wantPages := (count + perPage - 1) / perPage
		got, err := b.DB.NumPages(set)
		if err != nil {
			t.Fatal(err)
		}
		if int(got) < wantPages-1 || int(got) > wantPages+2 {
			t.Fatalf("%s: %d pages, model says %d (O=%d)", set, got, wantPages, perPage)
		}
	}
	check("R", 1000, 100)
	check("S", 500, 200)
}

func TestStrategiesProduceEqualAnswers(t *testing.T) {
	var rowsBy [3][]string
	for i, strat := range []Strategy{NoReplication, InPlace, Separate} {
		b := build(t, Spec{SCount: 100, F: 2, Seed: 7, Strategy: strat})
		res, _, err := b.DB.Query(nil, engine.Query{Set: "R", Project: []string{"field_r", "sref.repfield"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			rowsBy[i] = append(rowsBy[i], row.Values[0].String()+"|"+row.Values[1].S)
		}
		if errs := b.DB.VerifyReplication(); len(errs) > 0 {
			t.Fatalf("%v: invariant: %v", strat, errs)
		}
	}
	for i := 1; i < 3; i++ {
		if len(rowsBy[i]) != len(rowsBy[0]) {
			t.Fatalf("row counts differ: %d vs %d", len(rowsBy[i]), len(rowsBy[0]))
		}
		for j := range rowsBy[0] {
			if rowsBy[i][j] != rowsBy[0][j] {
				t.Fatalf("strategy %d row %d: %s vs %s", i, j, rowsBy[i][j], rowsBy[0][j])
			}
		}
	}
}

func TestReadQueryIOOrdering(t *testing.T) {
	// At f > 1 with unclustered indexes, measured read I/O must order
	// in-place < separate < none, the paper's central claim.
	const n = 5
	avg := map[Strategy]float64{}
	for _, strat := range []Strategy{NoReplication, InPlace, Separate} {
		b := build(t, Spec{SCount: 500, F: 8, Seed: 11, Strategy: strat})
		v, err := b.AvgReadIO(n, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		avg[strat] = v
	}
	if !(avg[InPlace] < avg[Separate] && avg[Separate] < avg[NoReplication]) {
		t.Fatalf("read I/O ordering violated: in-place=%v separate=%v none=%v",
			avg[InPlace], avg[Separate], avg[NoReplication])
	}
}

func TestUpdateQueryIOOrdering(t *testing.T) {
	// Updates: none < separate < in-place at f > 1 (propagation cost).
	avg := map[Strategy]float64{}
	for _, strat := range []Strategy{NoReplication, InPlace, Separate} {
		b := build(t, Spec{SCount: 500, F: 8, Seed: 13, Strategy: strat})
		v, err := b.AvgUpdateIO(5, 0.004)
		if err != nil {
			t.Fatal(err)
		}
		avg[strat] = v
	}
	if !(avg[NoReplication] < avg[Separate] && avg[Separate] < avg[InPlace]) {
		t.Fatalf("update I/O ordering violated: none=%v separate=%v in-place=%v",
			avg[NoReplication], avg[Separate], avg[InPlace])
	}
}

func TestRunMixEndpoints(t *testing.T) {
	b := build(t, Spec{SCount: 300, F: 2, Seed: 3, Strategy: InPlace})
	res, err := b.RunMix(0, 4, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 0 || res.Reads != 4 {
		t.Fatalf("mix(0) = %+v", res)
	}
	res, err = b.RunMix(1, 4, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 0 || res.Updates != 4 {
		t.Fatalf("mix(1) = %+v", res)
	}
	if res.AvgIO <= 0 || res.AvgUpdateIO <= 0 {
		t.Fatalf("mix stats not populated: %+v", res)
	}
	if errs := b.DB.VerifyReplication(); len(errs) > 0 {
		t.Fatalf("invariant after mix: %v", errs)
	}
}

func TestClusteredBuild(t *testing.T) {
	b := build(t, Spec{SCount: 300, F: 2, Seed: 5, Clustered: true, Strategy: Separate})
	// Clustered: reading a field_r range touches close to the minimal
	// number of R pages.
	st, err := b.ReadQuery(0.05) // 30 objects
	if err != nil {
		t.Fatal(err)
	}
	// 30 contiguous R objects at ~34/page spill over at most 2-3 pages; add
	// index + S' + output overhead. An unclustered read of 30 objects would
	// touch ~30 R pages alone.
	if st.Reads > 25 {
		t.Fatalf("clustered read performed %d reads", st.Reads)
	}
	bu := build(t, Spec{SCount: 300, F: 2, Seed: 5, Clustered: false, Strategy: Separate})
	stu, err := bu.ReadQuery(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if stu.Reads <= st.Reads {
		t.Fatalf("unclustered read (%d) not more expensive than clustered (%d)", stu.Reads, st.Reads)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{SCount: 0, F: 1}); err == nil {
		t.Fatal("zero SCount accepted")
	}
	if _, err := Build(Spec{SCount: 10, F: 1, RSize: 5}); err == nil {
		t.Fatal("undersized R accepted")
	}
}

func TestTwoLevelBuildAndOrdering(t *testing.T) {
	avg := map[Strategy]float64{}
	for _, strat := range []Strategy{NoReplication, InPlace, Separate} {
		b, err := BuildTwoLevel(TwoLevelSpec{RCount: 2000, F: 5, G: 4, Seed: 21, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if n, _ := b.DB.Count("R"); n != 2000 {
			t.Fatalf("|R| = %d", n)
		}
		if n, _ := b.DB.Count("S1"); n != 400 {
			t.Fatalf("|S1| = %d", n)
		}
		if n, _ := b.DB.Count("S2"); n != 100 {
			t.Fatalf("|S2| = %d", n)
		}
		if errs := b.DB.VerifyReplication(); len(errs) > 0 {
			t.Fatalf("%v: %v", strat, errs)
		}
		v, err := b.AvgReadIO(3, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		avg[strat] = v
	}
	// 2-level reads: in-place (0 joins) < separate (1 small join) < none (2 joins).
	if !(avg[InPlace] < avg[Separate] && avg[Separate] < avg[NoReplication]) {
		t.Fatalf("2-level read ordering violated: %v", avg)
	}
}

func TestTwoLevelSpecValidation(t *testing.T) {
	if _, err := BuildTwoLevel(TwoLevelSpec{RCount: 0, F: 1, G: 1}); err == nil {
		t.Fatal("zero RCount accepted")
	}
	if _, err := BuildTwoLevel(TwoLevelSpec{RCount: 10, F: 3, G: 2}); err == nil {
		t.Fatal("non-divisible RCount accepted")
	}
}
