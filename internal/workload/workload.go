// Package workload builds the synthetic databases of the paper's Section 6
// cost model inside the real engine, and drives the read/update query mixes
// measured by the experiments.
//
// The schema mirrors the model's:
//
//	define type RTYPE ( sref: ref STYPE, field_r: int, pad: char[] )
//	define type STYPE ( repfield: char[k], field_s: int, pad: char[] )
//	create R: {own ref RTYPE}
//	create S: {own ref STYPE}
//	replicate R.sref.repfield
//
// Pad fields size objects to the model's r and s byte targets (accounting
// for encoding and record overheads), every S object is referenced by
// exactly f R objects, and R and S are relatively unclustered: the
// assignment of references is a random shuffle (§6.2).
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/engine"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Strategy selects the replication configuration under test.
type Strategy int

// Configurations compared by the experiments.
const (
	NoReplication Strategy = iota
	InPlace
	Separate
)

func (s Strategy) String() string {
	switch s {
	case NoReplication:
		return "none"
	case InPlace:
		return "in-place"
	case Separate:
		return "separate"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Spec describes a model database instance.
type Spec struct {
	SCount int // |S|
	F      int // sharing level: |R| = F * |S|
	K      int // replicated field size (bytes)
	RSize  int // R object byte target (base, before replication overheads)
	SSize  int // S object byte target

	// Clustered selects the §6.4 setting: when true the B+trees on field_r
	// and field_s are clustered indexes (files in key order); when false the
	// key order is a random permutation of the file order.
	Clustered bool

	Strategy Strategy
	Seed     int64
	// PoolPages overrides the buffer pool size (0 = large default sized to
	// the biggest query working set, realizing the optimal-join assumption).
	PoolPages int
	// InlineMax is passed to the engine (§4.3.1 link inlining threshold):
	// 0 = engine default (1), negative = disable inlining.
	InlineMax int
}

// Built is a constructed model database.
type Built struct {
	Spec   Spec
	DB     *engine.DB
	RCount int

	// fieldR[i] is the field_r value of the i-th inserted R object; values
	// form a permutation of [0, RCount).
	maxFieldR int
	maxFieldS int
	rng       *rand.Rand
}

// encoding overheads (see schema encoding and heap record format): used to
// translate the model's object byte sizes into pad lengths so that on-page
// footprints track the model.
const (
	objHeader   = 3 // type-tag + flags
	intSize     = 8
	strHeader   = 2
	refSize     = 10
	recOverhead = 7 // heap record header (3) + slot entry (4)
	modelH      = 20
)

// Build constructs the database.
func Build(spec Spec) (*Built, error) {
	if spec.SCount <= 0 || spec.F <= 0 {
		return nil, fmt.Errorf("workload: SCount and F must be positive")
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
	rCount := spec.F * spec.SCount
	pool := spec.PoolPages
	if pool == 0 {
		// Large enough that a full set scan plus a functional join never
		// re-reads a page: the optimal-join assumption (§6.2).
		pool = rCount/8 + spec.SCount/4 + 1024
	}
	db, err := engine.Open(engine.Config{PoolPages: pool, InlineMax: spec.InlineMax})
	if err != nil {
		return nil, err
	}

	// Pad lengths: make the per-object page footprint equal the model's
	// h + size, i.e. payload = size + modelH - recOverhead.
	rPad := spec.RSize + modelH - recOverhead - (objHeader + refSize + intSize + strHeader)
	sPad := spec.SSize + modelH - recOverhead - (objHeader + strHeader + spec.K + intSize + strHeader)
	if rPad < 0 || sPad < 0 {
		db.Close()
		return nil, fmt.Errorf("workload: object size targets too small (rPad=%d sPad=%d)", rPad, sPad)
	}

	if err := db.DefineType("STYPE", []schema.Field{
		{Name: "repfield", Kind: schema.KindString},
		{Name: "field_s", Kind: schema.KindInt},
		{Name: "pad", Kind: schema.KindString},
	}); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.DefineType("RTYPE", []schema.Field{
		{Name: "sref", Kind: schema.KindRef, RefType: "STYPE"},
		{Name: "field_r", Kind: schema.KindInt},
		{Name: "pad", Kind: schema.KindString},
	}); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.CreateSet("S", "STYPE"); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.CreateSet("R", "RTYPE"); err != nil {
		db.Close()
		return nil, err
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	b := &Built{Spec: spec, DB: db, RCount: rCount, maxFieldR: rCount, maxFieldS: spec.SCount, rng: rng}

	// field values: with a clustered index the file is in key order; with an
	// unclustered index the keys are a random permutation of file order.
	fieldS := identityOrPermutation(spec.SCount, spec.Clustered, rng)
	fieldR := identityOrPermutation(rCount, spec.Clustered, rng)

	// Insert S.
	sOIDs := make([]pagefile.OID, spec.SCount)
	sPadStr := strings.Repeat("s", sPad)
	for i := 0; i < spec.SCount; i++ {
		oid, err := db.Insert("S", map[string]schema.Value{
			"repfield": schema.StringValue(repfieldValue(i, spec.K)),
			"field_s":  schema.IntValue(int64(fieldS[i])),
			"pad":      schema.StringValue(sPadStr),
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		sOIDs[i] = oid
	}
	// Reference assignment: each S object referenced by exactly F objects of
	// R, shuffled so R and S are relatively unclustered.
	refs := make([]int, rCount)
	for i := range refs {
		refs[i] = i % spec.SCount
	}
	rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })

	rPadStr := strings.Repeat("r", rPad)
	for i := 0; i < rCount; i++ {
		if _, err := db.Insert("R", map[string]schema.Value{
			"sref":    schema.RefValue(sOIDs[refs[i]]),
			"field_r": schema.IntValue(int64(fieldR[i])),
			"pad":     schema.StringValue(rPadStr),
		}); err != nil {
			db.Close()
			return nil, err
		}
	}

	// Indexes on field_r and field_s (§6.2: queries always use them).
	if err := db.BuildIndex("r_field_r", "R", "field_r", spec.Clustered); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.BuildIndex("s_field_s", "S", "field_s", spec.Clustered); err != nil {
		db.Close()
		return nil, err
	}

	// Replication path.
	switch spec.Strategy {
	case InPlace:
		if err := db.Replicate("R.sref.repfield", catalog.InPlace); err != nil {
			db.Close()
			return nil, err
		}
	case Separate:
		if err := db.Replicate("R.sref.repfield", catalog.Separate); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := db.FlushAll(); err != nil {
		db.Close()
		return nil, err
	}
	return b, nil
}

// Close releases the database.
func (b *Built) Close() error { return b.DB.Close() }

func identityOrPermutation(n int, identity bool, rng *rand.Rand) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	if !identity {
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// repfieldValue is a deterministic k-byte value for S object i.
func repfieldValue(i, k int) string {
	base := fmt.Sprintf("rep-%08d-", i)
	if len(base) >= k {
		return base[:k]
	}
	return base + strings.Repeat("x", k-len(base))
}

// ReadQuery runs one cost-model read query — an index-assisted range
// selection of fr*|R| objects of R projecting (field_r, sref.repfield) into
// an output file — against a cold cache, returning the page I/O it incurred.
func (b *Built) ReadQuery(fr float64) (engine.IOStats, error) {
	n := int(fr * float64(b.RCount))
	if n < 1 {
		n = 1
	}
	lo := 0
	if b.maxFieldR > n {
		lo = b.rng.Intn(b.maxFieldR - n)
	}
	if err := b.DB.ColdCache(); err != nil {
		return engine.IOStats{}, err
	}
	// Per-query traces, not a global-counter delta: the query's record plus
	// the trailing flush's record is exactly the I/O this query caused, and
	// stays exact even if something else runs against the DB concurrently.
	_, rec, err := b.DB.Query(nil, engine.Query{
		Set:     "R",
		Project: []string{"field_r", "sref.repfield"},
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
	frec, err := b.DB.FlushAllTraced()
	if err != nil {
		return engine.IOStats{}, err
	}
	return traceIO(rec, frec), nil
}

// traceIO sums trace records into the IOStats shape the figures consume.
func traceIO(recs ...obs.Record) engine.IOStats {
	var st engine.IOStats
	for _, r := range recs {
		st.Reads += r.StoreReads
		st.Writes += r.StoreWrites
		st.Allocs += r.StoreAllocs
	}
	return st
}

// UpdateQuery runs one cost-model update query — an index-assisted range
// update of fs*|S| objects of S, modifying repfield (and thereby exercising
// update propagation) — against a cold cache.
func (b *Built) UpdateQuery(fs float64) (engine.IOStats, error) {
	n := int(fs * float64(b.Spec.SCount))
	if n < 1 {
		n = 1
	}
	lo := 0
	if b.maxFieldS > n {
		lo = b.rng.Intn(b.maxFieldS - n)
	}
	if err := b.DB.ColdCache(); err != nil {
		return engine.IOStats{}, err
	}
	_, rec, err := b.DB.UpdateWhere(nil, "S",
		engine.Pred{
			Expr: "field_s", Op: engine.OpBetween,
			Value:  schema.IntValue(int64(lo)),
			Value2: schema.IntValue(int64(lo + n - 1)),
		},
		map[string]schema.Value{
			"repfield": schema.StringValue(repfieldValue(b.rng.Intn(1<<30), b.Spec.K)),
		})
	if err != nil {
		return engine.IOStats{}, err
	}
	frec, err := b.DB.FlushAllTraced()
	if err != nil {
		return engine.IOStats{}, err
	}
	return traceIO(rec, frec), nil
}

// MixResult aggregates a query-mix run.
type MixResult struct {
	Queries     int
	Reads       int
	Updates     int
	AvgIO       float64 // average pages per query: the measured C_total
	AvgReadIO   float64
	AvgUpdateIO float64
}

// RunMix executes nQueries queries, each an update with probability pUpdate
// and a read otherwise, and returns average per-query page I/O — the
// measured counterpart of the model's C_total.
func (b *Built) RunMix(pUpdate float64, nQueries int, fr, fs float64) (MixResult, error) {
	var res MixResult
	var totalIO, readIO, updIO int64
	for i := 0; i < nQueries; i++ {
		if b.rng.Float64() < pUpdate {
			st, err := b.UpdateQuery(fs)
			if err != nil {
				return res, err
			}
			res.Updates++
			updIO += st.Total()
			totalIO += st.Total()
		} else {
			st, err := b.ReadQuery(fr)
			if err != nil {
				return res, err
			}
			res.Reads++
			readIO += st.Total()
			totalIO += st.Total()
		}
	}
	res.Queries = nQueries
	if nQueries > 0 {
		res.AvgIO = float64(totalIO) / float64(nQueries)
	}
	if res.Reads > 0 {
		res.AvgReadIO = float64(readIO) / float64(res.Reads)
	}
	if res.Updates > 0 {
		res.AvgUpdateIO = float64(updIO) / float64(res.Updates)
	}
	return res, nil
}

// AvgReadIO measures the mean I/O of n read queries.
func (b *Built) AvgReadIO(n int, fr float64) (float64, error) {
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

// AvgUpdateIO measures the mean I/O of n update queries.
func (b *Built) AvgUpdateIO(n int, fs float64) (float64, error) {
	var total int64
	for i := 0; i < n; i++ {
		st, err := b.UpdateQuery(fs)
		if err != nil {
			return 0, err
		}
		total += st.Total()
	}
	return float64(total) / float64(n), nil
}
