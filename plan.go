package fieldrepl

import (
	"context"

	"github.com/exodb/fieldrepl/internal/plan"
)

// Plan is a compiled query: the cost-based planner's access-path decision for
// one Query, held as a first-class value. Obtain one with DB.Plan, inspect it
// with Explain (which lists the chosen operator pipeline and every costed
// alternative with its rejection reason), and execute it with Run. After Run,
// Explain additionally pairs the planner's page prediction with the pages the
// execution actually read — the live self-check that the cost model tracks
// reality.
//
// A Plan is bound to the DB that produced it and is not safe for concurrent
// use; plan each goroutine's queries separately. Running a Plan re-validates
// the decision against the current catalog, so a Plan held across schema
// changes (index drops, new replication paths) executes correctly — the
// recorded decision is refreshed to whatever the executor actually chose.
type Plan struct {
	db       *DB
	q        Query
	d        *plan.Decision
	observed int64
	ran      bool
}

// Plan compiles q without executing it: the planner costs every access path
// (index ranges, clustered and unclustered heap scans, replicated-field fast
// paths) against the catalog's measured statistics and records its choice.
// ctx is checked once up front; a nil ctx is allowed.
func (db *DB) Plan(ctx context.Context, q Query) (*Plan, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	eq, err := toEngineQuery(q)
	if err != nil {
		return nil, err
	}
	d, err := db.e.PlanQuery(eq)
	if err != nil {
		return nil, err
	}
	return &Plan{db: db, q: q, d: d}, nil
}

// Run executes the planned query. Cancellation behaves like QueryCtx; a nil
// ctx is allowed. The returned Result's Plan field holds the rendered
// decision with observed pages, and subsequent Explain calls include them
// too.
func (p *Plan) Run(ctx context.Context) (*Result, error) {
	eq, err := toEngineQuery(p.q)
	if err != nil {
		return nil, err
	}
	res, rec, err := p.db.e.Query(ctx, eq)
	if err != nil {
		return nil, err
	}
	if res.Decision != nil {
		p.d = res.Decision
	}
	p.observed = rec.IO()
	p.ran = true
	out := fromEngineResult(res)
	out.Plan = p.Explain()
	return out, nil
}

// Explain renders the plan as text: the chosen access path, the operator
// pipeline with per-operator page costs, and every costed candidate with the
// reason it was chosen or rejected. After Run the header also carries the
// observed page count next to the prediction.
func (p *Plan) Explain() string {
	if p.d == nil {
		return ""
	}
	if p.ran {
		return p.d.RenderObserved(p.observed)
	}
	return p.d.Render()
}

// Access reports the chosen access path: "seq-scan" or "index-range".
func (p *Plan) Access() string {
	if p.d == nil {
		return ""
	}
	return p.d.Access.String()
}

// Index names the index the plan probes; empty for scans.
func (p *Plan) Index() string {
	if p.d == nil {
		return ""
	}
	return p.d.Index
}

// PredictedPages is the planner's page-I/O estimate for the chosen path.
func (p *Plan) PredictedPages() float64 {
	if p.d == nil {
		return 0
	}
	return p.d.PredictedPages
}

// ObservedPages is the page I/O the last Run actually performed (its own
// trace, unaffected by concurrent work). It is -1 before the first Run.
func (p *Plan) ObservedPages() int64 {
	if !p.ran {
		return -1
	}
	return p.observed
}
