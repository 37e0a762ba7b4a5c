// Package fieldrepl is an embedded, structurally object-oriented database
// engine with field replication, a reproduction of Shekita & Carey,
// "Performance Enhancement Through Replication in an Object-Oriented DBMS"
// (SIGMOD 1989).
//
// Field replication speeds up queries that traverse reference attributes
// ("functional joins") by selectively replicating the data fields at the end
// of a reference path into — or alongside — the referencing objects, and
// keeping the replicas consistent through inverted paths built from link
// objects. Two storage strategies are provided:
//
//   - in-place replication: the replicated value is stored as a hidden field
//     inside each referencing object; a query touching the path performs no
//     functional join at all;
//   - separate replication: replicated values are stored in a small, shared,
//     tightly clustered S′ file; queries join against S′ instead of the much
//     larger target set, and updates touch one shared object instead of
//     every referrer.
//
// # Quick start
//
//	db, _ := fieldrepl.Open(fieldrepl.Config{})
//	defer db.Close()
//
//	db.DefineType("DEPT", []fieldrepl.Field{
//		{Name: "name", Kind: fieldrepl.String},
//		{Name: "budget", Kind: fieldrepl.Int},
//	})
//	db.DefineType("EMP", []fieldrepl.Field{
//		{Name: "name", Kind: fieldrepl.String},
//		{Name: "salary", Kind: fieldrepl.Int},
//		{Name: "dept", Kind: fieldrepl.Ref, RefType: "DEPT"},
//	})
//	db.CreateSet("Dept", "DEPT")
//	db.CreateSet("Emp1", "EMP")
//
//	d, _ := db.Insert("Dept", fieldrepl.V{"name": fieldrepl.S("Research"), "budget": fieldrepl.I(100)})
//	db.Insert("Emp1", fieldrepl.V{"name": fieldrepl.S("Alice"), "salary": fieldrepl.I(120000), "dept": fieldrepl.R(d)})
//
//	// Eliminate the functional join for Emp1.dept.name:
//	db.Replicate("Emp1.dept.name", fieldrepl.InPlace)
//
//	res, _ := db.Query(fieldrepl.Query{
//		Set:     "Emp1",
//		Project: []string{"name", "salary", "dept.name"},
//		Where:   &fieldrepl.Pred{Expr: "salary", Op: fieldrepl.GT, Value: fieldrepl.I(100000)},
//	})
//
// The same schema and operations are also available through the EXTRA-style
// surface language via Exec:
//
//	db.Exec(`replicate Emp1.dept.name`)
//	db.Exec(`retrieve (Emp1.name, Emp1.dept.name) where Emp1.salary > 100000`)
//
// # Planning and explain
//
// Queries go through a cost-based planner: access paths (B-tree index
// ranges, clustered and unclustered heap scans, replicated-field fast paths)
// are costed in predicted page I/O against measured catalog statistics.
// DB.Plan compiles a query into a first-class Plan value whose Explain
// method renders the chosen operator pipeline, every costed alternative with
// its rejection reason, and — after Plan.Run — the predicted page count next
// to the pages actually read. The surface language exposes the same
// rendering through "explain <stmt>".
//
// # Canonical context-first API
//
// The context-taking methods are the canonical forms — QueryCtx,
// UpdateWhereCtx, ExecCtx, InsertCtx-style variants where present, and
// DB.Plan/Plan.Run — and each context-free name (Query, UpdateWhere, Exec)
// is a thin compatibility wrapper that delegates to its Ctx form with a nil
// context. New code should pass a context; the wrappers exist so existing
// callers keep compiling and behaving identically.
//
// # Measurement
//
// The engine counts page-level I/O at its buffer-pool boundary (IO) and
// supports cold-cache measurement (ColdCache), which the included
// experiments use to reproduce the paper's analytical results on a running
// system. Per-operation traces (RecentTraces, SetSlowQueryLog, MetricsJSON)
// attribute pages exactly under concurrency; IO deltas suit a quiet
// database. See DESIGN.md and EXPERIMENTS.md in the repository.
package fieldrepl
