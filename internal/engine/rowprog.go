package engine

import (
	"context"
	"fmt"
	"strings"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/plan"
	"github.com/exodb/fieldrepl/internal/schema"
)

// rowProgram is one statement's Where, Filters and Project compiled against
// the catalog: everything that is constant for the statement — which field
// index, which replication path, which types a functional join walks through,
// whether the constants are comparable at all — is decided once here, and the
// per-record work left to a rowWorker is reading values at fixed positions of
// the encoded record. The planner classifies path expressions off the same
// accessors, so the resolution order exists once (compileAccessor).
//
// A program is compiled per execution, under the catalog's lock, and dies
// with it; nothing in it survives a DDL statement.
type rowProgram struct {
	typ   *schema.Type
	preds []rowPred   // Where first, then Filters
	proj  []*accessor // one per Project expression
	accs  []*accessor // each distinct expression once, in order of first use
	where *accessor   // the Where expression's accessor, nil without Where
	// memo is the join-fusion memo of the program's functional walks; nil for
	// Query.NoFuse and for UpdateWhere's collection pass (see fused.go).
	memo *fuseMemo
}

type rowPred struct {
	acc    *accessor
	op     Op
	lo, hi schema.Value // Pred.Value and, for OpBetween, Pred.Value2
}

// accessor is one expression resolved to the way its value is obtained from a
// source record. route says which:
//
//   - PathPlain: base field `field` of the record.
//   - PathInPlace: hidden value (path.ID, hidden) inside the record.
//   - PathSeparate: field `hidden` of the S′ object the record's hidden
//     group reference names (one S′ fetch).
//   - PathFused: a functional walk through `walk`, departing from the record's
//     base reference `field` or — when a replicated reference attribute
//     covers a prefix of the expression (§3.3.3 path collapsing) — from the
//     hidden reference (path.ID, hidden).
//
// A broken chain (null reference, hidden value never installed) yields
// schema.Zero(kind) on every route.
type accessor struct {
	expr   string
	spec   catalog.PathSpec // Refs empty for a plain field
	kind   schema.Kind      // the terminal field's kind
	route  plan.PathKind
	field  int
	path   *catalog.Path
	hidden uint8
	walk   []walkStep
	slot   int // index in rowProgram.accs and rowWorker.terms
}

// walkStep is one object read of a functional walk: an object of type typ,
// from which field next is taken — the reference to the next step's object,
// or on the last step the terminal value.
type walkStep struct {
	typ  *schema.Type
	next int
}

// compileQuery compiles q's expressions. Unknown fields, non-reference steps
// inside a path and predicate constants of the wrong kind are reported here,
// before any page is read. Callers hold db.mu (either mode).
func (db *DB) compileQuery(q Query, fuse bool) (*rowProgram, error) {
	typ, err := db.cat.SetType(q.Set)
	if err != nil {
		return nil, err
	}
	p := &rowProgram{typ: typ}
	access := func(expr string) (*accessor, error) {
		for _, a := range p.accs {
			if a.expr == expr {
				return a, nil
			}
		}
		a, err := compileAccessor(db.cat, q.Set, typ, expr)
		if err != nil {
			return nil, err
		}
		a.slot = len(p.accs)
		p.accs = append(p.accs, a)
		return a, nil
	}
	pred := func(pr *Pred) error {
		a, err := access(pr.Expr)
		if err != nil {
			return err
		}
		if pr.Op < OpEQ || pr.Op > OpBetween {
			return fmt.Errorf("engine: unknown operator %v", pr.Op)
		}
		if a.kind == schema.KindRef {
			return fmt.Errorf("engine: cannot compare %s values (%s.%s)", a.kind, q.Set, pr.Expr)
		}
		c := pr.Value
		if c.Kind == a.kind && pr.Op == OpBetween {
			c = pr.Value2
		}
		if c.Kind != a.kind {
			return fmt.Errorf("%w: %s.%s is %s, compared with %s", schema.ErrTypeMismatch, q.Set, pr.Expr, a.kind, c.Kind)
		}
		p.preds = append(p.preds, rowPred{acc: a, op: pr.Op, lo: pr.Value, hi: pr.Value2})
		return nil
	}
	if q.Where != nil {
		if err := pred(q.Where); err != nil {
			return nil, err
		}
		p.where = p.preds[0].acc
	}
	for i := range q.Filters {
		if err := pred(&q.Filters[i]); err != nil {
			return nil, err
		}
	}
	for _, expr := range q.Project {
		a, err := access(expr)
		if err != nil {
			return nil, err
		}
		p.proj = append(p.proj, a)
	}
	if fuse {
		p.memo = newFuseMemo()
	}
	return p, nil
}

// compileAccessor resolves expr — a field of typ or a dotted path from it —
// in order of preference to
//
//  1. an exactly matching in-place replication path (zero extra I/O),
//  2. an exactly matching separate replication path (one S′ fetch),
//  3. the longest replicated reference attribute covering a prefix (§3.3.3
//     path collapsing), continuing with a shortened functional walk,
//  4. a full functional walk.
func compileAccessor(cat *catalog.Catalog, set string, typ *schema.Type, expr string) (*accessor, error) {
	parts := strings.Split(expr, ".")
	refs, field := parts[:len(parts)-1], parts[len(parts)-1]
	a := &accessor{expr: expr, spec: catalog.PathSpec{Source: set, Refs: refs, Field: field}}

	// types[i] is the type refs[i] is an attribute of; the last holds field.
	types := []*schema.Type{typ}
	for _, r := range refs {
		cur := types[len(types)-1]
		f, ok := cur.Field(r)
		if !ok || f.Kind != schema.KindRef {
			return nil, fmt.Errorf("engine: %s has no reference attribute %q", cur.Name, r)
		}
		next, ok := cat.TypeByName(f.RefType)
		if !ok {
			return nil, fmt.Errorf("engine: unknown type %s", f.RefType)
		}
		types = append(types, next)
	}
	terminal := types[len(refs)]
	ti := terminal.FieldIndex(field)
	if ti < 0 {
		if len(refs) == 0 {
			return nil, fmt.Errorf("engine: set %s has no field %q", set, field)
		}
		return nil, fmt.Errorf("engine: %s has no field %q", terminal.Name, field)
	}
	a.kind = terminal.Fields[ti].Kind
	if len(refs) == 0 {
		a.route, a.field = plan.PathPlain, ti
		return a, nil
	}

	// No read answers through a path while a Repair is unfinished: its
	// replicated state may be half rebuilt. The walk then reads the primary
	// objects, and planQuery, which follows the route, uses no path index.
	find := func(spec catalog.PathSpec, strategy catalog.Strategy) (*catalog.Path, bool) {
		if cat.NeedsRederive() {
			return nil, false
		}
		return cat.FindPath(spec, strategy)
	}
	if p, ok := find(a.spec, catalog.InPlace); ok {
		if rf, ok := replField(p.Fields, field); ok {
			a.route, a.path, a.hidden = plan.PathInPlace, p, rf.Idx
			return a, nil
		}
	}
	if p, ok := find(a.spec, catalog.Separate); ok {
		if rf, ok := replField(p.Group.Fields, field); ok {
			a.route, a.path, a.hidden = plan.PathSeparate, p, rf.Idx
			return a, nil
		}
	}
	a.route = plan.PathFused
	from := 0 // the walk reads the objects refs[from:] point at
	a.field = typ.FieldIndex(refs[0])
	for k := len(refs) - 1; k >= 1; k-- {
		p, ok := find(catalog.PathSpec{Source: set, Refs: refs[:k], Field: refs[k]}, catalog.InPlace)
		if !ok {
			continue
		}
		if rf, ok := replField(p.Fields, refs[k]); ok && rf.Kind == schema.KindRef {
			from, a.path, a.hidden = k, p, rf.Idx
			break
		}
	}
	for i := from; i < len(refs); i++ {
		next := ti
		if i+1 < len(refs) {
			next = types[i+1].FieldIndex(refs[i+1])
		}
		a.walk = append(a.walk, walkStep{typ: types[i+1], next: next})
	}
	return a, nil
}

func replField(fields []catalog.ReplField, name string) (catalog.ReplField, bool) {
	for _, f := range fields {
		if f.Name == name {
			return f, true
		}
	}
	return catalog.ReplField{}, false
}

// rowWorker evaluates a program over a stream of records. It owns the record
// view and the page-boundary cancellation state, so each goroutine of a
// parallel scan has its own; the program (and its memo) is shared.
type rowWorker struct {
	p    *rowProgram
	s    *sess
	ctx  context.Context
	view schema.View
	page pagefile.PageID // heap page of the previous record
	// terms (per accessor) and verdicts (per predicate) memoize walked
	// terminal values and predicate orderings by departure OID; nil without a
	// fusion memo (see fused.go).
	terms    []departures[schema.Value]
	verdicts []departures[verdict]
	// slab holds the values not yet carved into rows; chunk is the row count
	// of its last allocation.
	slab  []schema.Value
	chunk int
}

// maxSlabValues caps a slab allocation, and so what a result can hold unused,
// at a size the allocator serves without rounding up to whole pages.
const maxSlabValues = 512

func (s *sess) newRowWorker(ctx context.Context, p *rowProgram) *rowWorker {
	// No record lives on the impossible page, so the first one checks ctx.
	w := &rowWorker{p: p, s: s, ctx: ctx, page: pagefile.PageID{File: ^pagefile.FileID(0), Page: ^uint32(0)}}
	if p.memo != nil {
		w.terms = make([]departures[schema.Value], len(p.accs))
		w.verdicts = make([]departures[verdict], len(p.preds))
	}
	return w
}

// eval applies the predicates to the record at oid and, if it passes them
// all, returns its projected values. payload is read in place and not
// retained; values are materialized only for a row that is returned.
// Cancellation is checked when the stream moves to another heap page.
//
// The caller builds the Row. Returning one made the caller spill the OID as
// two 32-bit halves and reload it as one word on every call, rejected
// records included: a store-forwarding stall worth a tenth of a path scan.
func (w *rowWorker) eval(oid pagefile.OID, payload []byte) ([]schema.Value, bool, error) {
	if pid := oid.PageID(); pid != w.page {
		w.page = pid
		if w.ctx != nil {
			if err := w.ctx.Err(); err != nil {
				return nil, false, err
			}
		}
	}
	if err := w.view.Reset(w.p.typ, payload); err != nil {
		return nil, false, err
	}
	for i := range w.p.preds {
		ok, err := w.test(i)
		if err != nil || !ok {
			return nil, false, err
		}
	}
	vals := w.carve(len(w.p.proj))
	for i, a := range w.p.proj {
		v, err := w.value(a)
		if err != nil {
			return nil, false, err
		}
		vals[i] = v
	}
	return vals, true, nil
}

// carve returns n zero values for one row, cut from the worker's slab. The
// slab's allocations double from a single row's, so a 1-row query allocates
// no more than one row. The capacity is cut at n: an append to one row's
// values cannot overwrite the next row's.
func (w *rowWorker) carve(n int) []schema.Value {
	if len(w.slab) < n {
		w.chunk = max(min(2*w.chunk, maxSlabValues/n), 1)
		w.slab = make([]schema.Value, w.chunk*n)
	}
	vals := w.slab[:n:n]
	w.slab = w.slab[n:]
	return vals
}

// test applies predicate i to the current record.
func (w *rowWorker) test(i int) (bool, error) {
	lo, hi, err := w.compare(i)
	if err != nil {
		return false, err
	}
	switch w.p.preds[i].op {
	case OpEQ:
		return lo == 0, nil
	case OpLT:
		return lo < 0, nil
	case OpLE:
		return lo <= 0, nil
	case OpGT:
		return lo > 0, nil
	case OpGE:
		return lo >= 0, nil
	default: // OpBetween; compileQuery admits no other
		return lo >= 0 && hi <= 0, nil
	}
}

// compare orders predicate i's value for the current record against its
// constant — lo — and, for OpBetween, its second constant — hi: in place when
// the value lies in the record, once per departure object for a fused walk
// with a memo (the verdict is kept per worker, see fused.go), else on the
// value resolved once.
func (w *rowWorker) compare(i int) (lo, hi int, err error) {
	p := &w.p.preds[i]
	a, between := p.acc, p.op == OpBetween
	switch a.route {
	case plan.PathPlain:
		lo = w.view.CompareField(a.field, p.lo)
		if between {
			hi = w.view.CompareField(a.field, p.hi)
		}
		return lo, hi, nil
	case plan.PathInPlace:
		if c, ok := w.view.CompareHidden(a.path.ID, a.hidden, p.lo); ok {
			if between {
				hi, _ = w.view.CompareHidden(a.path.ID, a.hidden, p.hi)
			}
			return c, hi, nil
		}
	case plan.PathFused:
		if w.verdicts == nil {
			break
		}
		from, err := w.departure(a)
		if err != nil {
			return 0, 0, err
		}
		if from.IsNil() {
			return p.order(schema.Zero(a.kind))
		}
		if v, ok := w.verdicts[i].get(from); ok {
			return int(v.lo), int(v.hi), nil
		}
		v, err := w.walk(a, from)
		if err == nil {
			lo, hi, err = p.order(v)
		}
		if err == nil {
			w.verdicts[i].put(from, verdict{lo: int8(lo), hi: int8(hi)})
		}
		return lo, hi, err
	}
	v, err := w.value(a)
	if err != nil {
		return 0, 0, err
	}
	return p.order(v)
}

// order orders v against the predicate's constants.
func (p *rowPred) order(v schema.Value) (lo, hi int, err error) {
	lo, err = compareValues(v, p.lo)
	if err == nil && p.op == OpBetween {
		hi, err = compareValues(v, p.hi)
	}
	return lo, hi, err
}

// value materializes the accessor's value for the current record, charging
// any S′ fetch or functional-walk read to the session's trace.
func (w *rowWorker) value(a *accessor) (schema.Value, error) {
	switch a.route {
	case plan.PathPlain:
		return w.view.Field(a.field), nil
	case plan.PathInPlace, plan.PathSeparate:
		return w.s.mgr.ReadReplicated(a.path, &w.view, a.hidden, w.s.tr)
	}
	from, err := w.departure(a)
	if err != nil {
		return schema.Value{}, err
	}
	if from.IsNil() {
		return schema.Zero(a.kind), nil
	}
	return w.walk(a, from)
}

// departure returns the OID the fused accessor a's walk departs from for the
// current record: its base reference, or on a collapsed prefix the hidden
// reference the replicated reference attribute holds.
func (w *rowWorker) departure(a *accessor) (pagefile.OID, error) {
	if a.path == nil {
		return w.view.Ref(a.field), nil
	}
	ref, err := w.s.mgr.ReadReplicated(a.path, &w.view, a.hidden, w.s.tr)
	return ref.R, err
}

func compareValues(a, b schema.Value) (int, error) {
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("engine: cannot compare %s with %s", a.Kind, b.Kind)
	}
	return a.Compare(b), nil
}
