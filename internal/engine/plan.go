package engine

import (
	"fmt"
	"math"

	"github.com/exodb/fieldrepl/internal/btree"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/plan"
	"github.com/exodb/fieldrepl/internal/schema"
)

// This file feeds the cost-based planner (internal/plan) from live state:
// heap page counts from store metadata, cardinalities from B+tree metadata
// when the set carries any index, path-resolution strategies from the
// catalog. Statistics gathering costs no heap I/O — at most a couple of
// index meta-page pins, which are buffer hits after the first query.

// PlanQuery runs the planner for q without executing it, returning the
// decision Explain renders: the chosen access path, every costed
// alternative, and the operator pipeline. It takes only the shared lock.
func (db *DB) PlanQuery(q Query) (*plan.Decision, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	prog, err := db.compileQuery(q, false)
	if err != nil {
		return nil, err
	}
	d, _ := db.readSess(nil).planQuery(q, prog)
	return d, nil
}

// planQuery gathers statistics and costs the access paths of q, whose
// compiled program is prog. It returns the decision and, when the decision is
// an index range, the catalog index to drive it with. Callers hold the
// session's locks.
func (s *sess) planQuery(q Query, prog *rowProgram) (*plan.Decision, *catalog.Index) {
	in := plan.Input{
		Source:    s.setStats(q.Set),
		ForceScan: q.ForceScan,
		Workers:   s.db.workers,
	}

	var ix *catalog.Index
	if q.Where != nil {
		spec := prog.where.spec
		var found bool
		switch {
		case len(spec.Refs) == 0:
			ix, found = s.db.cat.IndexFor(q.Set, spec.Field)
		case prog.where.route == plan.PathInPlace:
			// A path index holds the in-place path's replicated values.
			ix, found = s.db.cat.PathIndexFor(q.Set, spec.Refs, spec.Field)
		}
		if !found {
			ix = nil
		}
		in.Where = s.predInfo(q.Where, in.Source)
		if ix != nil {
			in.Index = s.indexInfo(ix)
			if in.Index == nil {
				ix = nil
			}
		}
		if ix != nil && q.Where.Op != OpEQ {
			// With an index over the predicate we know the key domain; an
			// edge-descent gives its bounds and the range interpolates to a
			// real selectivity instead of the System R constant.
			if sel, ok := s.interpolateRange(q.Where, ix); ok {
				if sel < 1/in.Source.Card {
					sel = 1 / in.Source.Card
				}
				if sel > 1 {
					sel = 1
				}
				in.Where.Selectivity = sel
			}
		}
	}

	in.Paths = s.pathExprs(prog, ix)
	if q.EmitOutput {
		est := in.Source.Card
		if in.Where != nil {
			est = in.Where.Selectivity * in.Source.Card
		}
		per := in.Source.PerPage
		if per < 1 {
			per = 1
		}
		in.EmitPages = math.Ceil(est / per)
		if in.EmitPages < 1 {
			in.EmitPages = 1
		}
	}

	d := plan.Choose(in)
	if d.Access != plan.IndexRange {
		ix = nil
	}
	return d, ix
}

// setStats measures set's physical statistics. Page counts come from store
// metadata (not page I/O); the cardinality is exact — one meta-page pin —
// whenever the set carries any index, and estimated from the schema's field
// widths otherwise.
func (s *sess) setStats(set string) plan.SetStats {
	st := plan.SetStats{Set: set, Pages: 1, Card: 1, PerPage: 1}
	cs, ok := s.db.cat.SetByName(set)
	if !ok {
		return st
	}
	if np, err := s.db.store.NumPages(cs.FileID); err == nil && np > 0 {
		st.Pages = float64(np)
	}
	for _, ix := range s.db.cat.IndexesOn(set) {
		tree, ok := s.treeFor(ix.Name)
		if !ok {
			continue
		}
		if n, err := tree.Count(); err == nil {
			st.Card = float64(n)
			st.Exact = true
			break
		}
	}
	if !st.Exact {
		per := 1.0
		if typ, err := s.db.cat.SetType(set); err == nil {
			per = estPerPage(typ)
		}
		st.Card = st.Pages * per
	}
	if st.Card < 1 {
		st.Card = 1
	}
	st.PerPage = st.Card / st.Pages
	if st.PerPage < 1 {
		st.PerPage = 1
	}
	return st
}

// objBytes estimates one object's stored size from the schema's field widths.
// Shared by the planner's records-per-page estimate and the advisor's live
// cost-model parameters (RSize/SSize).
func objBytes(typ *schema.Type) float64 {
	size := 24.0 // object header + slot overhead
	for _, f := range typ.Fields {
		size += fieldBytes(f.Kind)
	}
	return size
}

// fieldBytes estimates one field's stored width by kind.
func fieldBytes(k schema.Kind) float64 {
	switch k {
	case schema.KindInt, schema.KindFloat:
		return 8
	case schema.KindString:
		return 16 // guess: short strings dominate
	case schema.KindRef:
		return pagefile.OIDSize
	}
	return 8
}

// estPerPage estimates records per page from the schema's field widths, for
// sets with no index to count exactly.
func estPerPage(typ *schema.Type) float64 {
	per := math.Floor(float64(pagefile.UserBytes) / objBytes(typ))
	if per < 1 {
		per = 1
	}
	return per
}

// predInfo estimates the qualifying predicate's selectivity: exact-match
// 1/card, open ranges 1/3, between 1/4 — clamped to [1/card, 1]. Without
// value distributions these are the classic System R constants.
func (s *sess) predInfo(p *Pred, st plan.SetStats) *plan.PredInfo {
	var sel float64
	switch p.Op {
	case OpEQ:
		sel = 1 / st.Card
	case OpBetween:
		sel = 0.25
	default:
		sel = 1.0 / 3
	}
	if sel < 1/st.Card {
		sel = 1 / st.Card
	}
	if sel > 1 {
		sel = 1
	}
	return &plan.PredInfo{Expr: p.Expr, Op: p.Op.String(), Detail: p, Selectivity: sel}
}

// String renders the predicate as plan text: "salary between 1 and 9".
func (p *Pred) String() string {
	s := p.Expr + " " + p.Op.String() + " " + valueStr(p.Value)
	if p.Op == OpBetween {
		s += " and " + valueStr(p.Value2)
	}
	return s
}

// interpolateRange estimates a range predicate's selectivity by uniform
// interpolation over the index's measured key domain [min, max]. Reports
// false for key kinds without a numeric interpretation (strings) or when the
// tree is empty.
func (s *sess) interpolateRange(p *Pred, ix *catalog.Index) (float64, bool) {
	tree, _, ok := s.treeView(ix.Name)
	if !ok {
		return 0, false
	}
	loK, hiK, nonEmpty, err := tree.Bounds()
	if err != nil || !nonEmpty {
		return 0, false
	}
	var mn, mx, v1, v2 float64
	switch ix.KeyKind {
	case schema.KindInt:
		if p.Value.Kind != schema.KindInt {
			return 0, false
		}
		mn, mx = float64(btree.Int64FromKey(loK)), float64(btree.Int64FromKey(hiK))
		v1 = float64(p.Value.I)
		if p.Op == OpBetween {
			if p.Value2.Kind != schema.KindInt {
				return 0, false
			}
			v2 = float64(p.Value2.I)
		}
	case schema.KindFloat:
		if p.Value.Kind != schema.KindFloat {
			return 0, false
		}
		mn, mx = btree.Float64FromKey(loK), btree.Float64FromKey(hiK)
		v1 = p.Value.F
		if p.Op == OpBetween {
			if p.Value2.Kind != schema.KindFloat {
				return 0, false
			}
			v2 = p.Value2.F
		}
	default:
		return 0, false
	}
	span := mx - mn
	if span <= 0 {
		return 1, true
	}
	frac := func(x float64) float64 {
		pos := (x - mn) / span
		if pos < 0 {
			pos = 0
		}
		if pos > 1 {
			pos = 1
		}
		return pos
	}
	switch p.Op {
	case OpLT, OpLE:
		return frac(v1), true
	case OpGT, OpGE:
		return 1 - frac(v1), true
	case OpBetween:
		sel := frac(v2) - frac(v1)
		if sel < 0 {
			sel = 0
		}
		return sel, true
	default:
		return 0, false
	}
}

func valueStr(v schema.Value) string {
	switch v.Kind {
	case schema.KindInt:
		return fmt.Sprintf("%d", v.I)
	case schema.KindFloat:
		return fmt.Sprintf("%g", v.F)
	case schema.KindString:
		return fmt.Sprintf("%q", v.S)
	case schema.KindRef:
		return v.R.String()
	default:
		return "?"
	}
}

// indexInfo measures the candidate index: height and entry count from its
// meta page, leaf page count from the file size minus the meta page and an
// internal-node estimate (one per level above the leaves — fanouts are wide,
// so the internal layers above the first round to a page or two at most).
func (s *sess) indexInfo(ix *catalog.Index) *plan.IndexInfo {
	tree, _, ok := s.treeView(ix.Name)
	if !ok {
		return nil
	}
	h, err := tree.Height()
	if err != nil || h < 1 {
		h = 1
	}
	info := &plan.IndexInfo{Name: ix.Name, Expr: ix.Field, Clustered: ix.Clustered, Height: float64(h)}
	if len(ix.Path) > 0 {
		info.Expr = joinPath(ix.Path, ix.Field)
	}
	if n, err := tree.Count(); err == nil {
		info.Entries = float64(n)
	}
	np, err := s.db.store.NumPages(ix.FileID)
	if err != nil || np == 0 {
		np = uint32(h) + 1
	}
	info.LeafPages = float64(np) - 1 - float64(h-1)
	if info.LeafPages < 1 {
		info.LeafPages = 1
	}
	return info
}

func joinPath(refs []string, field string) string {
	out := ""
	for _, r := range refs {
		out += r + "."
	}
	return out + field
}

// pathExprs describes every dotted path expression of the program to the
// planner by the route its accessor was compiled to: exact in-place
// replication (free), exact separate replication (one S′ fetch per record),
// or a fused functional join whose page cost the memo caps at the traversed
// sets' total pages. ix is the index candidate over the Where expression,
// whose keys cover that path.
func (s *sess) pathExprs(prog *rowProgram, ix *catalog.Index) []plan.PathExpr {
	var out []plan.PathExpr
	for _, a := range prog.accs {
		if a.route == plan.PathPlain {
			continue
		}
		p := plan.PathExpr{Expr: a.expr, Kind: a.route, Levels: len(a.walk)}
		// The memo's page ceiling: total heap pages of the sets actually walked.
		for _, step := range a.walk {
			p.LevelPages += s.typePages(step.typ)
		}
		for i := range prog.preds {
			p.Filter = p.Filter || prog.preds[i].acc == a
		}
		p.Covered = a == prog.where && ix != nil && len(ix.Path) > 0
		out = append(out, p)
	}
	return out
}

// typePages sums the heap pages of the sets holding objects of typ.
func (s *sess) typePages(typ *schema.Type) float64 {
	var pages float64
	for _, set := range s.db.cat.Sets() {
		if set.TypeName != typ.Name {
			continue
		}
		if np, err := s.db.store.NumPages(set.FileID); err == nil {
			pages += float64(np)
		}
	}
	return pages
}
