package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/engine"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// TwoLevelSpec describes a 2-level path database: |R| sources referencing
// |R|/F objects of S1, which reference |R|/(F*G) objects of S2 — the
// employee/department/organization shape of the paper's examples, sized like
// the Section 6 model.
type TwoLevelSpec struct {
	RCount int
	F      int // S1 sharing: each S1 object referenced by F sources
	G      int // S2 sharing: each S2 object referenced by G S1 objects
	K      int // replicated field size
	RSize  int
	SSize  int // size of S1 and S2 objects

	Strategy  Strategy
	Seed      int64
	PoolPages int
}

// TwoLevel is a constructed 2-level database with the path
// R.sref.s2.repfield replicated per the spec's strategy.
type TwoLevel struct {
	Spec   TwoLevelSpec
	DB     *engine.DB
	rng    *rand.Rand
	maxKey int
}

// BuildTwoLevel constructs the database.
func BuildTwoLevel(spec TwoLevelSpec) (*TwoLevel, error) {
	if spec.RCount <= 0 || spec.F <= 0 || spec.G <= 0 {
		return nil, fmt.Errorf("workload: RCount, F, G must be positive")
	}
	if spec.RCount%(spec.F*spec.G) != 0 {
		return nil, fmt.Errorf("workload: RCount must be divisible by F*G")
	}
	if spec.K == 0 {
		spec.K = 20
	}
	if spec.RSize == 0 {
		spec.RSize = 100
	}
	if spec.SSize == 0 {
		spec.SSize = 200
	}
	pool := spec.PoolPages
	if pool == 0 {
		pool = spec.RCount/8 + 2048
	}
	db, err := engine.Open(engine.Config{PoolPages: pool})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*TwoLevel, error) {
		db.Close()
		return nil, err
	}

	s2Count := spec.RCount / (spec.F * spec.G)
	s1Count := spec.RCount / spec.F
	s2Pad := spec.SSize + modelH - recOverhead - (objHeader + strHeader + spec.K + strHeader)
	s1Pad := spec.SSize + modelH - recOverhead - (objHeader + refSize + strHeader)
	rPad := spec.RSize + modelH - recOverhead - (objHeader + refSize + intSize + strHeader)
	if s2Pad < 0 || s1Pad < 0 || rPad < 0 {
		return fail(fmt.Errorf("workload: object size targets too small"))
	}

	if err := db.DefineType("S2TYPE", []schema.Field{
		{Name: "repfield", Kind: schema.KindString},
		{Name: "pad", Kind: schema.KindString},
	}); err != nil {
		return fail(err)
	}
	if err := db.DefineType("S1TYPE", []schema.Field{
		{Name: "s2", Kind: schema.KindRef, RefType: "S2TYPE"},
		{Name: "pad", Kind: schema.KindString},
	}); err != nil {
		return fail(err)
	}
	if err := db.DefineType("RTYPE2", []schema.Field{
		{Name: "sref", Kind: schema.KindRef, RefType: "S1TYPE"},
		{Name: "field_r", Kind: schema.KindInt},
		{Name: "pad", Kind: schema.KindString},
	}); err != nil {
		return fail(err)
	}
	for _, s := range []struct{ name, typ string }{{"S2", "S2TYPE"}, {"S1", "S1TYPE"}, {"R", "RTYPE2"}} {
		if err := db.CreateSet(s.name, s.typ); err != nil {
			return fail(err)
		}
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	s2OIDs := make([]pagefile.OID, s2Count)
	s2PadStr := strings.Repeat("2", s2Pad)
	for i := range s2OIDs {
		oid, err := db.Insert("S2", map[string]schema.Value{
			"repfield": schema.StringValue(repfieldValue(i, spec.K)),
			"pad":      schema.StringValue(s2PadStr),
		})
		if err != nil {
			return fail(err)
		}
		s2OIDs[i] = oid
	}
	s1Refs := make([]int, s1Count)
	for i := range s1Refs {
		s1Refs[i] = i % s2Count
	}
	rng.Shuffle(len(s1Refs), func(i, j int) { s1Refs[i], s1Refs[j] = s1Refs[j], s1Refs[i] })
	s1OIDs := make([]pagefile.OID, s1Count)
	s1PadStr := strings.Repeat("1", s1Pad)
	for i := range s1OIDs {
		oid, err := db.Insert("S1", map[string]schema.Value{
			"s2":  schema.RefValue(s2OIDs[s1Refs[i]]),
			"pad": schema.StringValue(s1PadStr),
		})
		if err != nil {
			return fail(err)
		}
		s1OIDs[i] = oid
	}
	rRefs := make([]int, spec.RCount)
	for i := range rRefs {
		rRefs[i] = i % s1Count
	}
	rng.Shuffle(len(rRefs), func(i, j int) { rRefs[i], rRefs[j] = rRefs[j], rRefs[i] })
	keys := identityOrPermutation(spec.RCount, false, rng)
	rPadStr := strings.Repeat("r", rPad)
	for i := 0; i < spec.RCount; i++ {
		if _, err := db.Insert("R", map[string]schema.Value{
			"sref":    schema.RefValue(s1OIDs[rRefs[i]]),
			"field_r": schema.IntValue(int64(keys[i])),
			"pad":     schema.StringValue(rPadStr),
		}); err != nil {
			return fail(err)
		}
	}
	if err := db.BuildIndex("r2_field_r", "R", "field_r", false); err != nil {
		return fail(err)
	}
	switch spec.Strategy {
	case InPlace:
		if err := db.Replicate("R.sref.s2.repfield", catalog.InPlace); err != nil {
			return fail(err)
		}
	case Separate:
		if err := db.Replicate("R.sref.s2.repfield", catalog.Separate); err != nil {
			return fail(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		return fail(err)
	}
	return &TwoLevel{Spec: spec, DB: db, rng: rng, maxKey: spec.RCount}, nil
}

// Close releases the database.
func (b *TwoLevel) Close() error { return b.DB.Close() }

// ReadQuery runs a cost-model read query over the 2-level path against a
// cold cache and returns its page I/O.
func (b *TwoLevel) ReadQuery(fr float64) (engine.IOStats, error) {
	n := int(fr * float64(b.Spec.RCount))
	if n < 1 {
		n = 1
	}
	lo := 0
	if b.maxKey > n {
		lo = b.rng.Intn(b.maxKey - n)
	}
	if err := b.DB.ColdCache(); err != nil {
		return engine.IOStats{}, err
	}
	before := b.DB.IO()
	_, _, err := b.DB.Query(nil, engine.Query{
		Set:     "R",
		Project: []string{"field_r", "sref.s2.repfield"},
		Where: &engine.Pred{
			Expr: "field_r", Op: engine.OpBetween,
			Value:  schema.IntValue(int64(lo)),
			Value2: schema.IntValue(int64(lo + n - 1)),
		},
		EmitOutput: true,
	})
	if err != nil {
		return engine.IOStats{}, err
	}
	if err := b.DB.FlushAll(); err != nil {
		return engine.IOStats{}, err
	}
	return b.DB.IO().Sub(before), nil
}

// AvgReadIO measures the mean I/O of n read queries.
func (b *TwoLevel) AvgReadIO(n int, fr float64) (float64, error) {
	var total int64
	for i := 0; i < n; i++ {
		st, err := b.ReadQuery(fr)
		if err != nil {
			return 0, err
		}
		total += st.Total()
	}
	return float64(total) / float64(n), nil
}
