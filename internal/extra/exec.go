package extra

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/engine"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/plan"
	"github.com/exodb/fieldrepl/internal/schema"
)

// ErrSessionClosed is returned by statements issued on a session that has
// been closed (explicitly, or because its network connection ended).
var ErrSessionClosed = errors.New("extra: session closed")

// Interp executes EXTRA statements against a database, keeping variable
// bindings (let x = insert ...) and an optionally open transaction (begin ...
// commit) across calls. An Interp is one session's state: it is not safe for
// concurrent use — callers serialize statements per session and give each
// concurrent session its own Interp.
type Interp struct {
	DB  *engine.DB
	Env map[string]pagefile.OID

	// txn is the session's open transaction (begin ... commit/rollback), nil
	// outside one. While open, DML and retrieve statements route through it.
	txn *engine.Txn
	// closed is set by Close; every later statement fails with
	// ErrSessionClosed.
	closed bool
}

// NewInterp returns an interpreter over db.
func NewInterp(db *engine.DB) *Interp {
	return &Interp{DB: db, Env: map[string]pagefile.OID{}}
}

// Close releases the session's state, rolling back an open transaction.
// Statements after Close fail with ErrSessionClosed; closing twice is a
// no-op.
func (in *Interp) Close() error {
	in.closed = true
	if in.txn == nil {
		return nil
	}
	t := in.txn
	in.txn = nil
	if err := t.Rollback(); err != nil && !errors.Is(err, engine.ErrTxnDone) {
		return err
	}
	return nil
}

// Output is the result of executing one statement.
type Output struct {
	// Message summarizes DDL/DML effects.
	Message string
	// Columns/Rows hold a retrieve result.
	Columns []string
	Rows    [][]string
	// OID is the inserted object's id for insert statements.
	OID pagefile.OID
	// Plan is the rendered planner decision for explain statements: chosen
	// operator pipeline, costed alternatives with rejection reasons, and
	// (for executed retrieves) predicted vs observed pages.
	Plan string
	// Decision is a plain retrieve's planner decision, left unrendered:
	// rendering costs more than a small indexed retrieve, so it is done
	// only by a caller that shows it.
	Decision *plan.Decision
}

// ExecCtx parses and executes a script, returning one Output per statement.
// Cancellation is checked between statements and threaded into each
// statement's query, update, and per-set lock waits, so a cancelled script
// stops promptly. The context's obs origin (if any) labels every trace the
// script produces. A nil ctx is never cancelled.
func (in *Interp) ExecCtx(ctx context.Context, src string) ([]Output, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	var outs []Output
	for _, s := range stmts {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return outs, err
			}
		}
		o, err := in.ExecStmt(ctx, s)
		if err != nil {
			return outs, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// --- statement targets ---
//
// Outside a transaction, statements hit the engine's one-shot paths (each
// DML statement an implicit durable transaction, each retrieve a snapshot
// read) with the statement context threaded through. Inside one, they route
// through the open engine.Txn, whose own locks and capture provide isolation;
// the transaction outlives any single statement context (a begin issued by
// one network request must survive that request's cancellation), so only the
// context's values — not its cancellation — carry over.

func (in *Interp) insert(ctx context.Context, set string, vals map[string]schema.Value) (pagefile.OID, error) {
	if in.txn != nil {
		return in.txn.Insert(set, vals)
	}
	return in.DB.InsertCtx(ctx, set, vals)
}

// replace and delete each run as one write session: the matching objects are
// collected under the set's locks and all of them change, or none does.
func (in *Interp) replace(ctx context.Context, q engine.Query, vals map[string]schema.Value) (int, error) {
	if in.txn != nil {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		return in.txn.ReplaceWhere(q, vals)
	}
	n, _, err := in.DB.ReplaceWhere(ctx, q, vals)
	return n, err
}

func (in *Interp) delete(ctx context.Context, q engine.Query) (int, error) {
	if in.txn != nil {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		return in.txn.DeleteWhere(q)
	}
	n, _, err := in.DB.DeleteWhere(ctx, q)
	return n, err
}

func (in *Interp) query(ctx context.Context, q engine.Query) (*engine.Result, error) {
	if in.txn != nil {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return in.txn.Query(q)
	}
	res, _, err := in.DB.Query(ctx, q)
	return res, err
}

// ctxErr is ctx.Err for a possibly nil ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ExecStmt executes one parsed statement under ctx. DDL inside an open
// transaction is refused (the transaction stays open).
func (in *Interp) ExecStmt(ctx context.Context, s Stmt) (Output, error) {
	if in.closed {
		return Output{}, ErrSessionClosed
	}
	if in.txn != nil && Classify(s) == ClassDDL {
		return Output{}, fmt.Errorf("extra: schema statements are not allowed inside a transaction")
	}
	return in.execStmt(ctx, s)
}

func (in *Interp) execStmt(ctx context.Context, s Stmt) (Output, error) {
	switch st := s.(type) {
	case *DefineTypeStmt:
		if err := in.DB.DefineType(st.Name, st.Fields); err != nil {
			return Output{}, err
		}
		return Output{Message: fmt.Sprintf("defined type %s (%d fields)", st.Name, len(st.Fields))}, nil
	case *CreateSetStmt:
		if err := in.DB.CreateSet(st.Name, st.TypeName); err != nil {
			return Output{}, err
		}
		return Output{Message: fmt.Sprintf("created set %s: {own ref %s}", st.Name, st.TypeName)}, nil
	case *ReplicateStmt:
		strat := catalog.InPlace
		if st.Separate {
			strat = catalog.Separate
		}
		var opts []catalog.PathOption
		if st.Collapsed {
			opts = append(opts, catalog.WithCollapsed())
		}
		if st.Deferred {
			opts = append(opts, catalog.WithDeferred())
		}
		if err := in.DB.Replicate(st.Path, strat, opts...); err != nil {
			return Output{}, err
		}
		spec, _ := catalog.ParsePathSpec(st.Path)
		seq := ""
		if ids, ok := in.DB.LinkSequence(spec, strat); ok {
			parts := make([]string, len(ids))
			for i, id := range ids {
				parts[i] = fmt.Sprintf("%d", id)
			}
			seq = fmt.Sprintf(", link sequence = (%s)", strings.Join(parts, ","))
		}
		return Output{Message: fmt.Sprintf("replicated %s (%s)%s", st.Path, strat, seq)}, nil
	case *UnreplicateStmt:
		strat := catalog.InPlace
		if st.Separate {
			strat = catalog.Separate
		}
		if err := in.DB.Unreplicate(st.Path, strat); err != nil {
			return Output{}, err
		}
		return Output{Message: fmt.Sprintf("unreplicated %s (%s)", st.Path, strat)}, nil
	case *DropIndexStmt:
		if err := in.DB.DropIndex(st.Name); err != nil {
			return Output{}, err
		}
		return Output{Message: fmt.Sprintf("dropped btree %s", st.Name)}, nil
	case *BuildIndexStmt:
		if err := in.DB.BuildIndex(st.Name, st.Set, st.Expr, st.Clustered); err != nil {
			return Output{}, err
		}
		return Output{Message: fmt.Sprintf("built btree %s on %s.%s", st.Name, st.Set, st.Expr)}, nil
	case *InsertStmt:
		vals := make(map[string]schema.Value, len(st.Assigns))
		for _, a := range st.Assigns {
			v, err := in.resolveLiteral(a.Value)
			if err != nil {
				return Output{}, err
			}
			vals[a.Field] = v
		}
		oid, err := in.insert(ctx, st.Set, vals)
		if err != nil {
			return Output{}, err
		}
		if st.BindVar != "" {
			in.Env[st.BindVar] = oid
		}
		return Output{Message: fmt.Sprintf("inserted %v into %s", oid, st.Set), OID: oid}, nil
	case *ExplainStmt:
		return in.explain(ctx, st)
	case *AdviseStmt:
		return in.advise()
	case *RetrieveStmt:
		q, err := in.buildQuery(st.Set, st.Project, st.Emit, st.Where, st.Filters)
		if err != nil {
			return Output{}, err
		}
		res, err := in.query(ctx, q)
		if err != nil {
			return Output{}, err
		}
		out := Output{Columns: make([]string, len(st.Project))}
		for i, pr := range st.Project {
			out.Columns[i] = st.Set + "." + pr
		}
		for _, row := range res.Rows {
			cells := make([]string, len(row.Values))
			for i, v := range row.Values {
				cells[i] = renderValue(v)
			}
			out.Rows = append(out.Rows, cells)
		}
		out.Message = fmt.Sprintf("%d objects", len(res.Rows))
		if res.UsedIndex != "" {
			out.Message += " (via index " + res.UsedIndex + ")"
		}
		out.Decision = res.Decision
		return out, nil
	case *ReplaceStmt:
		vals := make(map[string]schema.Value, len(st.Assigns))
		for _, a := range st.Assigns {
			v, err := in.resolveLiteral(a.Value)
			if err != nil {
				return Output{}, err
			}
			vals[a.Field] = v
		}
		q, err := in.buildQuery(st.Set, nil, false, st.Where, st.Filters)
		if err != nil {
			return Output{}, err
		}
		n, err := in.replace(ctx, q, vals)
		if err != nil {
			return Output{}, err
		}
		return Output{Message: fmt.Sprintf("replaced %d objects in %s", n, st.Set)}, nil
	case *DeleteStmt:
		q, err := in.buildQuery(st.Set, nil, false, st.Where, st.Filters)
		if err != nil {
			return Output{}, err
		}
		n, err := in.delete(ctx, q)
		if err != nil {
			return Output{}, err
		}
		return Output{Message: fmt.Sprintf("deleted %d objects from %s", n, st.Set)}, nil
	case *BeginStmt:
		if in.txn != nil {
			return Output{}, fmt.Errorf("extra: a transaction is already open (commit or rollback it first)")
		}
		// The transaction must outlive this statement's context — a begin
		// issued over the network is followed by statements from later
		// requests — so cancellation is shorn off; origin and other values
		// carry over for trace attribution.
		tctx := ctx
		if tctx != nil {
			tctx = context.WithoutCancel(tctx)
		}
		var (
			t   *engine.Txn
			err error
		)
		if len(st.Sets) > 0 {
			t, err = in.DB.BeginSets(tctx, st.Sets...)
		} else {
			t, err = in.DB.Begin(tctx)
		}
		if err != nil {
			return Output{}, err
		}
		in.txn = t
		if len(st.Sets) > 0 {
			return Output{Message: fmt.Sprintf("begun transaction on %s", strings.Join(st.Sets, ", "))}, nil
		}
		return Output{Message: "begun transaction"}, nil
	case *CommitStmt:
		if in.txn == nil {
			return Output{}, fmt.Errorf("extra: no open transaction to commit")
		}
		t := in.txn
		in.txn = nil
		if err := t.Commit(); err != nil {
			return Output{}, err
		}
		return Output{Message: "committed"}, nil
	case *RollbackStmt:
		if in.txn == nil {
			return Output{}, fmt.Errorf("extra: no open transaction to rollback")
		}
		t := in.txn
		in.txn = nil
		if err := t.Rollback(); err != nil {
			return Output{}, err
		}
		return Output{Message: "rolled back"}, nil
	default:
		return Output{}, fmt.Errorf("extra: unknown statement %T", s)
	}
}

// advise renders the workload advisor's report as a table: one row per path,
// costed strategies, recommendation, and confidence.
func (in *Interp) advise() (Output, error) {
	rep := in.DB.Advise()
	if !rep.Enabled {
		return Output{Message: "advisor disabled"}, nil
	}
	out := Output{Columns: []string{
		"path", "current", "recommended", "reads", "updates",
		"update_frac", "cost_none", "cost_inplace", "cost_separate",
		"savings_pct", "confidence",
	}}
	for _, r := range rep.Recommendations {
		out.Rows = append(out.Rows, []string{
			r.Path, r.Current, r.Recommended,
			fmt.Sprintf("%d", r.Reads), fmt.Sprintf("%d", r.Updates),
			fmt.Sprintf("%.3f", r.UpdateFraction),
			fmt.Sprintf("%.2f", r.Costs["no-replication"].TotalPages),
			fmt.Sprintf("%.2f", r.Costs["in-place"].TotalPages),
			fmt.Sprintf("%.2f", r.Costs["separate"].TotalPages),
			fmt.Sprintf("%.1f", r.PredictedSavingsPct),
			r.Confidence,
		})
	}
	out.Message = fmt.Sprintf("advised %d paths (%d ops over %d windows)",
		len(rep.Recommendations), rep.OpsObserved, rep.WindowsRotated)
	return out, nil
}

// buildQuery assembles the engine query shared by retrieve execution, DML
// collection, and explain.
func (in *Interp) buildQuery(set string, project []string, emit bool, where *PredStmt, filters []*PredStmt) (engine.Query, error) {
	q := engine.Query{Set: set, Project: project, EmitOutput: emit}
	if where != nil {
		p, err := in.toPred(where)
		if err != nil {
			return engine.Query{}, err
		}
		q.Where = &p
	}
	for _, f := range filters {
		p, err := in.toPred(f)
		if err != nil {
			return engine.Query{}, err
		}
		q.Filters = append(q.Filters, p)
	}
	return q, nil
}

// explain renders the planner's decision for the inner statement. A retrieve
// is executed on the snapshot read path, so the rendering pairs the predicted
// page count with the pages actually read; replace and delete are planned
// only — their collection query is costed but the mutation never runs.
func (in *Interp) explain(ctx context.Context, st *ExplainStmt) (Output, error) {
	if in.txn != nil {
		return Output{}, fmt.Errorf("extra: explain is not allowed inside a transaction")
	}
	switch s := st.Inner.(type) {
	case *RetrieveStmt:
		q, err := in.buildQuery(s.Set, s.Project, s.Emit, s.Where, s.Filters)
		if err != nil {
			return Output{}, err
		}
		res, rec, err := in.DB.Query(ctx, q)
		if err != nil {
			return Output{}, err
		}
		out := Output{Message: fmt.Sprintf("explained retrieve: %d objects", len(res.Rows))}
		if res.Decision != nil {
			out.Plan = res.Decision.RenderObserved(rec.IO())
		}
		return out, nil
	case *ReplaceStmt:
		return in.explainCollect(ctx, "replace", s.Set, s.Where, s.Filters)
	case *DeleteStmt:
		return in.explainCollect(ctx, "delete", s.Set, s.Where, s.Filters)
	default:
		return Output{}, fmt.Errorf("extra: explain supports retrieve, replace, and delete statements")
	}
}

// explainCollect plans a DML statement's collection query without executing
// the mutation.
func (in *Interp) explainCollect(ctx context.Context, verb, set string, where *PredStmt, filters []*PredStmt) (Output, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Output{}, err
		}
	}
	q, err := in.buildQuery(set, nil, false, where, filters)
	if err != nil {
		return Output{}, err
	}
	d, err := in.DB.PlanQuery(q)
	if err != nil {
		return Output{}, err
	}
	return Output{
		Message: fmt.Sprintf("explained %s on %s (planned only, not executed)", verb, set),
		Plan:    d.Render(),
	}, nil
}

func (in *Interp) toPred(p *PredStmt) (engine.Pred, error) {
	v, err := in.resolveLiteral(p.Value)
	if err != nil {
		return engine.Pred{}, err
	}
	out := engine.Pred{Expr: p.Expr, Value: v}
	switch p.Op {
	case "=":
		out.Op = engine.OpEQ
	case "<":
		out.Op = engine.OpLT
	case "<=":
		out.Op = engine.OpLE
	case ">":
		out.Op = engine.OpGT
	case ">=":
		out.Op = engine.OpGE
	case "between":
		out.Op = engine.OpBetween
		hi, err := in.resolveLiteral(p.Hi)
		if err != nil {
			return engine.Pred{}, err
		}
		out.Value2 = hi
	default:
		return engine.Pred{}, fmt.Errorf("extra: unknown operator %q", p.Op)
	}
	return out, nil
}

func (in *Interp) resolveLiteral(l Literal) (schema.Value, error) {
	if l.Var != "" {
		oid, ok := in.Env[l.Var]
		if !ok {
			return schema.Value{}, fmt.Errorf("extra: unbound variable %q", l.Var)
		}
		return schema.RefValue(oid), nil
	}
	return l.Value, nil
}

func renderValue(v schema.Value) string {
	switch v.Kind {
	case schema.KindString:
		return v.S
	case schema.KindInt:
		return fmt.Sprintf("%d", v.I)
	case schema.KindFloat:
		return fmt.Sprintf("%g", v.F)
	case schema.KindRef:
		if v.R.IsNil() {
			return "nil"
		}
		return "@" + v.R.String()
	default:
		return ""
	}
}

// FormatTable renders a retrieve Output as an aligned text table.
func (o Output) FormatTable() string {
	if len(o.Columns) == 0 {
		return o.Message
	}
	widths := make([]int, len(o.Columns))
	for i, c := range o.Columns {
		widths[i] = len(c)
	}
	for _, row := range o.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(o.Columns)
	sep := make([]string, len(o.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range o.Rows {
		writeRow(row)
	}
	sb.WriteString(o.Message)
	sb.WriteByte('\n')
	return sb.String()
}
