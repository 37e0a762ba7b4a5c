package extra

import "github.com/exodb/fieldrepl/internal/schema"

// Stmt is one parsed statement.
type Stmt interface{ stmt() }

// DefineTypeStmt is "define type NAME ( field: type, ... )".
type DefineTypeStmt struct {
	Name   string
	Fields []schema.Field
}

// CreateSetStmt is "create NAME : {own ref TYPE}".
type CreateSetStmt struct {
	Name     string
	TypeName string
}

// ReplicateStmt is
// "replicate [separate|inplace] [collapsed] [deferred] Set.ref...field".
type ReplicateStmt struct {
	Path      string
	Separate  bool
	Collapsed bool
	Deferred  bool
}

// BuildIndexStmt is "build btree [NAME] on Set.expr [clustered]".
type BuildIndexStmt struct {
	Name      string // optional; generated when empty
	Set       string
	Expr      string // field or dotted path within the set
	Clustered bool
}

// Literal is a literal value or a variable reference.
type Literal struct {
	Value schema.Value
	Var   string // non-empty: lookup of a bound OID variable
	IsNil bool   // the literal keyword nil (null reference)
}

// Assign is "field = literal".
type Assign struct {
	Field string
	Value Literal
}

// InsertStmt is "insert Set ( field = v, ... )", optionally bound by let.
type InsertStmt struct {
	Set     string
	Assigns []Assign
	BindVar string // "let x = insert ..."
}

// PredStmt is a single comparison predicate on a (possibly dotted) path.
type PredStmt struct {
	Expr  string // within-set expression, set prefix stripped
	Op    string // = < <= > >= between
	Value Literal
	Hi    Literal // for between
}

// RetrieveStmt is
// "retrieve ( Set.expr, ... ) [where pred (and pred)*]".
type RetrieveStmt struct {
	Set     string
	Project []string
	Where   *PredStmt
	Filters []*PredStmt // additional "and" conjuncts
	Emit    bool        // "retrieve into output (...)": generate an output file
}

// ReplaceStmt is "replace Set ( field = v, ... ) [where pred (and pred)*]".
type ReplaceStmt struct {
	Set     string
	Assigns []Assign
	Where   *PredStmt
	Filters []*PredStmt
}

// DeleteStmt is "delete Set [where pred (and pred)*]".
type DeleteStmt struct {
	Set     string
	Where   *PredStmt
	Filters []*PredStmt
}

// BeginStmt is "begin" (exclusive transaction) or "begin on SetA, SetB"
// (fine-grained transaction confined to the named sets' footprint closure).
type BeginStmt struct {
	Sets []string
}

// CommitStmt is "commit": atomically apply and make durable everything since
// the matching begin.
type CommitStmt struct{}

// RollbackStmt is "rollback" (or "abort"): discard everything since the
// matching begin.
type RollbackStmt struct{}

// ExplainStmt is "explain STMT": render the cost-based planner's decision
// for the inner statement. A retrieve is executed (so the plan carries
// observed pages); replace and delete are planned only, without running the
// mutation.
type ExplainStmt struct {
	Inner Stmt
}

// UnreplicateStmt is "unreplicate [separate|inplace] Set.ref...field".
type UnreplicateStmt struct {
	Path     string
	Separate bool
}

// DropIndexStmt is "drop btree NAME".
type DropIndexStmt struct {
	Name string
}

// AdviseStmt is `advise`: the workload advisor's report as a table — one row
// per path with the observed mix, the costed strategies, and the
// recommendation.
type AdviseStmt struct{}

func (*AdviseStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}
func (*UnreplicateStmt) stmt() {}
func (*DropIndexStmt) stmt()   {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}

// Class partitions statements by the isolation the engine gives them:
// schema-changing statements take its exclusive lock (and are refused
// inside a transaction), mutating statements coordinate through its per-set
// write locks, and read-only statements run on the snapshot read path.
// Transaction-control statements coordinate through the engine transaction
// they open or close.
type Class int

const (
	// ClassDDL: define type, create, replicate, unreplicate, build/drop
	// btree — catalog mutations serialized by the exclusive lock.
	ClassDDL Class = iota
	// ClassWrite: insert, replace, delete — DML that the engine runs under
	// the per-set locks of its footprint (WAL) or its own writer lock.
	ClassWrite
	// ClassRead: retrieve — executes on the snapshot read path and never
	// waits on writers.
	ClassRead
	// ClassTxn: begin, commit, rollback — transaction control.
	ClassTxn
)

// Classify reports a statement's Class.
func Classify(s Stmt) Class {
	switch s.(type) {
	case *ExplainStmt:
		// explain replace/delete only plans — it never mutates — so every
		// explain runs on the read path.
		return ClassRead
	case *RetrieveStmt:
		return ClassRead
	case *AdviseStmt:
		// advise reads aggregated telemetry and the catalog (shared lock
		// inside the engine); it never mutates.
		return ClassRead
	case *InsertStmt, *ReplaceStmt, *DeleteStmt:
		return ClassWrite
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return ClassTxn
	default:
		return ClassDDL
	}
}
func (*DefineTypeStmt) stmt() {}
func (*CreateSetStmt) stmt()  {}
func (*ReplicateStmt) stmt()  {}
func (*BuildIndexStmt) stmt() {}
func (*InsertStmt) stmt()     {}
func (*RetrieveStmt) stmt()   {}
func (*ReplaceStmt) stmt()    {}
func (*DeleteStmt) stmt()     {}
