package fieldrepl

import (
	"fmt"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Kind enumerates field and value kinds.
type Kind uint8

// Field kinds.
const (
	Int    Kind = Kind(schema.KindInt)
	Float  Kind = Kind(schema.KindFloat)
	String Kind = Kind(schema.KindString)
	Ref    Kind = Kind(schema.KindRef)
)

func (k Kind) String() string { return schema.Kind(k).String() }

// Field declares one attribute of a type: a scalar (Int, Float, String) or a
// reference attribute (Ref) naming its target type.
type Field struct {
	Name    string
	Kind    Kind
	RefType string
}

// OID identifies a stored object. The zero OID is the null reference.
type OID struct {
	inner pagefile.OID
}

// IsNil reports whether the OID is the null reference.
func (o OID) IsNil() bool { return o.inner.IsNil() }

func (o OID) String() string {
	if o.IsNil() {
		return "nil"
	}
	return o.inner.String()
}

// NilOID is the null reference.
var NilOID OID

// Value is a typed field value. Construct values with I, F, S, and R.
type Value struct {
	inner schema.Value
}

// I returns an int value.
func I(v int64) Value { return Value{inner: schema.IntValue(v)} }

// F returns a float value.
func F(v float64) Value { return Value{inner: schema.FloatValue(v)} }

// S returns a string value.
func S(v string) Value { return Value{inner: schema.StringValue(v)} }

// R returns a reference value.
func R(oid OID) Value { return Value{inner: schema.RefValue(oid.inner)} }

// Kind returns the value's kind; the zero Value has an invalid kind.
func (v Value) Kind() Kind { return Kind(v.inner.Kind) }

// Int returns the int contents (zero unless Kind == Int).
func (v Value) Int() int64 { return v.inner.I }

// Float returns the float contents.
func (v Value) Float() float64 { return v.inner.F }

// Str returns the string contents.
func (v Value) Str() string { return v.inner.S }

// Oid returns the reference contents.
func (v Value) Oid() OID { return OID{inner: v.inner.R} }

// Equal reports deep equality of two values.
func (v Value) Equal(w Value) bool { return v.inner.Equal(w.inner) }

func (v Value) String() string { return v.inner.String() }

// V is a convenient literal type for field assignments.
type V = map[string]Value

// Strategy selects a replication storage strategy.
type Strategy int

// The two strategies of the paper.
const (
	InPlace  Strategy = Strategy(catalog.InPlace)
	Separate Strategy = Strategy(catalog.Separate)
)

func (s Strategy) String() string { return catalog.Strategy(s).String() }

// ReplicateOption modifies a Replicate call.
type ReplicateOption func(*replicateOpts)

type replicateOpts struct {
	collapsed bool
	deferred  bool
}

// Collapsed requests a collapsed inverted path (paper §4.3.3); valid for
// 2-level in-place paths.
func Collapsed() ReplicateOption { return func(o *replicateOpts) { o.collapsed = true } }

// Deferred requests deferred update propagation (paper §8 future work):
// data-field updates to the path's terminal objects are queued and applied
// when the replicated values are next read, so a burst of updates to one
// object costs a single propagation. Structural maintenance stays eager.
// Valid for in-place paths.
func Deferred() ReplicateOption { return func(o *replicateOpts) { o.deferred = true } }

// Op is a comparison operator.
type Op int

// Comparison operators for predicates.
const (
	EQ Op = iota
	LT
	LE
	GT
	GE
	Between
)

// Pred is a predicate on a field or dotted path expression of the queried
// set, e.g. {Expr: "salary", Op: GT, Value: I(100000)} or
// {Expr: "dept.org.name", Op: EQ, Value: S("Acme")}.
type Pred struct {
	Expr   string
	Op     Op
	Value  Value
	Value2 Value // upper bound for Between
}

// Query is a retrieve statement.
type Query struct {
	// Set is the queried set.
	Set string
	// Project lists field names or dotted path expressions. Path
	// expressions are resolved through replicated data when a matching
	// replication path exists, otherwise by functional joins.
	Project []string
	// Where optionally filters; an index on the predicate expression is
	// used when available.
	Where *Pred
	// Filters are additional conjuncts ANDed after Where; they never drive
	// index selection.
	Filters []Pred
	// EmitOutput writes result tuples to an output file, so its page writes
	// are included in I/O measurements (the cost model's T file).
	EmitOutput bool
	// ForceScan disables index selection.
	ForceScan bool
}

// Row is one result tuple.
type Row struct {
	OID    OID
	Values []Value
}

// Get returns the i-th projected value.
func (r Row) Get(i int) Value { return r.Values[i] }

// Result is a query result.
type Result struct {
	Rows []Row
	// UsedIndex names the index the planner chose, if any.
	UsedIndex string
	// OutputPages is the size of the generated output file when EmitOutput
	// was set.
	OutputPages int
	// Plan is the cost-based planner's rendered decision for this execution:
	// the chosen operator pipeline, every costed alternative with its
	// rejection reason, and predicted vs observed pages.
	Plan string
}

// Record is a decoded object's visible fields.
type Record struct {
	OID    OID
	Fields map[string]Value
}

// IOStats is a snapshot of cumulative page-level I/O.
type IOStats struct {
	Reads  int64
	Writes int64
}

// Total returns Reads + Writes.
func (s IOStats) Total() int64 { return s.Reads + s.Writes }

// Sub returns the delta s - t.
func (s IOStats) Sub(t IOStats) IOStats {
	return IOStats{Reads: s.Reads - t.Reads, Writes: s.Writes - t.Writes}
}

func (s IOStats) String() string {
	return fmt.Sprintf("reads=%d writes=%d", s.Reads, s.Writes)
}
