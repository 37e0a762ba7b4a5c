// Package plan implements the cost-based query planner: given a query's
// predicate shape and the catalog's physical statistics, it costs every
// viable access path in predicted page I/O — B+tree index range, sequential
// heap scan, replicated-field fast path, fused functional join — and emits
// an executable Decision the engine drives execution from and the Explain
// API renders.
//
// Costing reuses the Section-6 machinery of internal/costmodel (Yao's
// function for unclustered fetches, ceil page counts for clustered ones)
// but runs it over measured statistics — heap page counts from the store,
// exact cardinalities from B+tree metadata when a set has any index —
// instead of the paper's synthetic parameters.
package plan

import (
	"fmt"

	"github.com/exodb/fieldrepl/internal/costmodel"
)

// Access enumerates the physical access paths the planner chooses between.
type Access int

// The access paths.
const (
	// SeqScan reads the set's heap file front to back, evaluating the
	// predicate over whole pinned pages.
	SeqScan Access = iota
	// IndexRange descends a B+tree to the predicate's key range and fetches
	// the qualifying objects.
	IndexRange
)

func (a Access) String() string {
	if a == IndexRange {
		return "index-range"
	}
	return "seq-scan"
}

// IndexMargin is the planner's index-preference tie-break, in pages: the
// index path is chosen unless a sequential scan is cheaper by more than this
// margin. Honest page counts would pick the scan on any set small enough to
// fit in a page or two, where the index costs the same handful of I/Os but
// returns sorted, early-terminating results — the margin encodes that an
// index within a few pages of the scan is never the wrong choice, while a
// decisively cheaper scan (wide range over a large unclustered set) still
// wins.
const IndexMargin = 8.0

// SetStats are the measured physical statistics of one set's heap file.
type SetStats struct {
	Set     string  // set name
	Pages   float64 // heap file page count (store metadata, exact)
	Card    float64 // record count: exact from B+tree metadata, else estimated
	PerPage float64 // records per page, consistent with Pages and Card
	Exact   bool    // Card came from index metadata rather than a size estimate
}

// IndexInfo describes a candidate B+tree over the predicate expression.
type IndexInfo struct {
	Name      string
	Expr      string // indexed field or dotted path
	Clustered bool
	Height    float64 // tree height (1 = root is a leaf), from metadata
	LeafPages float64 // estimated leaf page count
	Entries   float64 // entry count, from metadata
}

// PredInfo summarizes the qualifying predicate for costing and rendering.
type PredInfo struct {
	Expr string
	Op   string // "=", "<", "<=", ">", ">=", "between"
	// Detail renders the predicate ("salary between 60000 and 64000"); it
	// is called only when the plan is rendered. nil renders no detail.
	Detail      fmt.Stringer
	Selectivity float64 // estimated fraction of the set qualifying
}

// PathKind classifies how one dotted path expression will be resolved.
type PathKind int

// The resolution strategies, cheapest first.
const (
	// PathPlain is a plain field: no traversal.
	PathPlain PathKind = iota
	// PathInPlace reads the value from in-place replicated storage inside
	// the source object — zero extra I/O.
	PathInPlace
	// PathSeparate fetches the value from a separate-replication S′ object:
	// one extra object read per evaluated record.
	PathSeparate
	// PathFused walks the reference chain as a fused functional join: the
	// whole multi-level traversal runs as one pass with decoded intermediate
	// and terminal objects memoized per query, so repeatedly referenced
	// targets are read and decoded once instead of once per source record.
	PathFused
)

func (k PathKind) String() string {
	switch k {
	case PathInPlace:
		return "repl-inplace"
	case PathSeparate:
		return "repl-separate"
	case PathFused:
		return "fused-join"
	default:
		return "field"
	}
}

// PathExpr is one dotted path expression appearing in the query, with the
// resolution strategy the catalog supports for it.
type PathExpr struct {
	Expr   string
	Kind   PathKind
	Levels int // functional-join levels actually walked (0 for replicated)
	// LevelPages is the total heap page count of the traversed target sets,
	// when resolvable — the ceiling a fused (memoized) traversal cannot
	// exceed no matter how many source records evaluate it. 0 = unknown.
	LevelPages float64
	// Filter marks a path evaluated as part of Where/Filters (paid for every
	// scanned record) rather than only for matching rows.
	Filter bool
	// Covered marks the Where path an index on the same expression resolves
	// through its keys, skipping the traversal entirely on the index path.
	Covered bool
}

// Input is everything the planner needs to cost a query.
type Input struct {
	Source SetStats
	Where  *PredInfo
	// Index is the catalog's index over the Where expression, nil when none
	// exists (Filters never drive index selection).
	Index *IndexInfo
	// Paths are the dotted path expressions among Where, Filters, and the
	// projection.
	Paths []PathExpr
	// ForceScan pins the decision to SeqScan (baseline measurements).
	ForceScan bool
	// Workers is the configured parallel-scan fan-out (affects the plan
	// label, not the page cost — the same pages are read either way).
	Workers int
	// EmitPages is the predicted output-file page count when the query emits
	// one, 0 otherwise.
	EmitPages float64
}

// Candidate is one costed access path, kept for Explain output (which
// derives its selection or rejection reason).
type Candidate struct {
	Access    Access  `json:"access"`
	Index     string  `json:"index,omitempty"`
	Clustered bool    `json:"clustered,omitempty"`
	Pages     float64 `json:"pages"`
	Chosen    bool    `json:"chosen"`
}

// Decision is the planner's output: the chosen access path and every costed
// alternative. It holds numbers only; the operator pipeline, the candidates'
// reasons and the predicate text are derived when it is rendered.
type Decision struct {
	Set       string `json:"set"`
	Access    Access `json:"-"`
	AccessStr string `json:"access"`
	// Index names the chosen index ("" for a scan); Clustered its clustering.
	Index     string `json:"index,omitempty"`
	Clustered bool   `json:"clustered,omitempty"`
	// Parallel marks a scan fanned out across workers.
	Parallel bool `json:"parallel,omitempty"`
	// Fused lists the path expressions resolved by fused traversal.
	Fused      []string    `json:"fused,omitempty"`
	Candidates []Candidate `json:"candidates"`
	// PredictedPages is the chosen candidate's page cost.
	PredictedPages float64 `json:"predicted_pages"`
	// EstRows is the predicted qualifying-row count.
	EstRows float64 `json:"est_rows"`

	in    Input        // what was costed, for rendering
	cands [2]Candidate // backs Candidates: scan, then the index if any
}

// Label returns the trace plan label the engine stamps on the operation:
// "scan", "scan-parallel", or "index:<name>".
func (d *Decision) Label() string {
	if d == nil {
		return ""
	}
	if d.Access == IndexRange {
		return "index:" + d.Index
	}
	if d.Parallel {
		return "scan-parallel"
	}
	return "scan"
}

// pathCost predicts the page I/O of resolving one path expression for
// records evaluations.
func pathCost(p PathExpr, records float64) float64 {
	var perRecord float64
	switch p.Kind {
	case PathPlain, PathInPlace:
		return 0
	case PathSeparate:
		perRecord = 1
	default:
		perRecord = float64(p.Levels)
	}
	c := perRecord * records
	if p.Kind == PathFused && p.LevelPages > 0 && c > p.LevelPages {
		// The fused traversal memoizes decoded targets: however many source
		// records resolve through it, each target page is fetched at most
		// once per query.
		c = p.LevelPages
	}
	return c
}

// selectivity is the fraction of the set the Where predicate qualifies,
// clamped to (0, 1]; 1 without a predicate.
func (in *Input) selectivity() float64 {
	if in.Where == nil || in.Where.Selectivity <= 0 || in.Where.Selectivity > 1 {
		return 1
	}
	return in.Where.Selectivity
}

// Choose costs every viable access path for in and returns the decision.
func Choose(in Input) *Decision {
	sel := in.selectivity()
	estRows := sel * in.Source.Card
	if in.Where != nil && estRows < 1 {
		estRows = 1
	}
	d := &Decision{Set: in.Source.Set, EstRows: estRows, in: in}

	// Sequential scan: every heap page once, path predicates evaluated for
	// every record, projection paths only for matches.
	scanPages := in.Source.Pages
	for _, p := range in.Paths {
		if p.Filter {
			scanPages += pathCost(p, in.Source.Card)
		} else {
			scanPages += pathCost(p, estRows)
		}
	}
	scanPages += in.EmitPages
	d.cands[0] = Candidate{Access: SeqScan, Pages: scanPages}
	d.Candidates = d.cands[:1]

	// Index range: descend, walk the qualifying leaf span, fetch the
	// qualifying objects (Yao for unclustered, ceil of the page fraction for
	// clustered), then resolve paths for matches only. An index over the
	// Where path itself skips that traversal entirely.
	if in.Index != nil && in.Where != nil {
		ix := in.Index
		ixPages := costmodel.IndexProbePages(ix.Height, ix.LeafPages, sel) + fetchPages(in, sel, estRows)
		for _, p := range in.Paths {
			if p.Covered {
				continue
			}
			ixPages += pathCost(p, estRows)
		}
		ixPages += in.EmitPages
		d.cands[1] = Candidate{
			Access: IndexRange, Index: ix.Name, Clustered: ix.Clustered, Pages: ixPages,
		}
		d.Candidates = d.cands[:2]
	}

	chosen := &d.Candidates[pick(d.Candidates, in.ForceScan)]
	chosen.Chosen = true
	d.Access = chosen.Access
	d.AccessStr = chosen.Access.String()
	d.Index = chosen.Index
	d.Clustered = chosen.Clustered
	d.Parallel = chosen.Access == SeqScan && in.Workers > 1
	d.PredictedPages = chosen.Pages
	for _, p := range in.Paths {
		if p.Kind == PathFused && !(p.Covered && d.Access == IndexRange) {
			d.Fused = append(d.Fused, p.Expr)
		}
	}
	return d
}

// pick selects the winning candidate: the scan when forced or alone, else
// the index unless the scan is cheaper by more than IndexMargin.
func pick(cands []Candidate, forceScan bool) int {
	if forceScan || len(cands) == 1 || cands[1].Pages > cands[0].Pages+IndexMargin {
		return 0
	}
	return 1
}

// fetchPages predicts the heap pages read to fetch the qualifying records
// through the candidate index.
func fetchPages(in Input, sel, estRows float64) float64 {
	st := costmodel.AccessStats{Pages: in.Source.Pages, Card: in.Source.Card, PerPage: in.Source.PerPage}
	if in.Index.Clustered {
		return costmodel.ClusteredFetchPages(st, sel)
	}
	return costmodel.UnclusteredFetchPages(st, estRows)
}
