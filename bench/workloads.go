package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/exodb/fieldrepl"
)

// op is one generated call. A read carries a Query, a write a set, predicate
// and assignment; both also carry the same request as surface-language text,
// which is what a network client sends and what extra.parse_us times. check
// compares the answer with the generator's in-memory model and, for a write,
// then applies the write to the model.
type op struct {
	write bool
	stmt  string
	q     fieldrepl.Query
	set   string
	where fieldrepl.Pred
	vals  fieldrepl.V
	check func(rows [][]string, n int) error
}

// dataset is the data and op generator of one workload together with the
// model its answers are checked against.
type dataset interface {
	// load defines the schema, loads every object, builds the indexes and
	// declares the replication paths.
	load(db *fieldrepl.DB, rng *rand.Rand) error
	// userBytes is the size of the primary fields of every loaded object:
	// 8 bytes per int, 10 per reference, the length of each string.
	userBytes() int64
	// next generates one operation of the given client; seq numbers the
	// client's operations and makes every written value distinct.
	next(rng *rand.Rand, client, nclients, seq int, write bool) op
	// probe returns a read that fetches what write w stored, checked against
	// the model as it stands when the probe runs.
	probe(w op) op
	// sample describes the workload's largest set to the layer loops.
	sample() layerSample
}

// layerSample is the record shape and count the layers.go loops run on.
type layerSample struct {
	fields []fieldrepl.Field
	values func(i int) fieldrepl.V
	count  int
}

const loadBatch = 2000 // objects per load transaction: its pages stay pinned until commit

// loadSet inserts n objects in transactions of loadBatch and returns their OIDs.
func loadSet(db *fieldrepl.DB, set string, n int, vals func(i int) fieldrepl.V) ([]fieldrepl.OID, error) {
	oids := make([]fieldrepl.OID, n)
	for base := 0; base < n; base += loadBatch {
		txn, err := db.Begin(nil)
		if err != nil {
			return nil, err
		}
		for i := base; i < n && i < base+loadBatch; i++ {
			oid, err := txn.Insert(set, vals(i))
			if err != nil {
				return nil, fmt.Errorf("load %s[%d]: %w", set, i, err)
			}
			oids[i] = oid
		}
		if err := txn.Commit(); err != nil {
			return nil, fmt.Errorf("load %s: %w", set, err)
		}
	}
	return oids, nil
}

func scaled(n, div, min int) int {
	n /= div
	if n < min {
		return min
	}
	return n
}

func wantRows(rows [][]string, n, cols int) error {
	if len(rows) != n {
		return fmt.Errorf("got %d rows, want %d", len(rows), n)
	}
	if n > 0 && len(rows[0]) != cols {
		return fmt.Errorf("got %d columns, want %d", len(rows[0]), cols)
	}
	return nil
}

func wantCount(n, want int) error {
	if n != want {
		return fmt.Errorf("write matched %d objects, want %d", n, want)
	}
	return nil
}

// ---- pathscan.warm --------------------------------------------------------

// pathscan is Org / Dept / Emp with no replication and no index: the read
// selects the employees of one organisation through the 2-reference path
// dept.org.name and projects the organisation's name and budget through it;
// the write assigns one organisation's budget.
type pathscan struct {
	nOrg, nDept, nEmp int
	deptOrg           []int   // dept -> org
	empDept           []int   // emp -> dept
	empsOfOrg         []int   // org -> number of employees
	budget            []int64 // org -> current budget (the model)
}

func newPathscan(sc scale) dataset {
	return &pathscan{nOrg: scaled(20, sc.Div, 4), nDept: scaled(200, sc.Div, 8), nEmp: scaled(20000, sc.Div, 100)}
}

func orgName(i int) string  { return fmt.Sprintf("org-%02d", i) }
func deptName(i int) string { return fmt.Sprintf("dept-%03d", i) }
func empName(i int) string  { return fmt.Sprintf("emp-%06d", i) }

func empID(name string) (int, error) {
	id, err := strconv.Atoi(strings.TrimPrefix(name, "emp-"))
	if err != nil {
		return 0, fmt.Errorf("unexpected employee name %q", name)
	}
	return id, nil
}

func (p *pathscan) empFields() []fieldrepl.Field {
	return []fieldrepl.Field{{Name: "name", Kind: fieldrepl.String}, {Name: "salary", Kind: fieldrepl.Int},
		{Name: "dept", Kind: fieldrepl.Ref, RefType: "DEPT"}}
}

func (p *pathscan) load(db *fieldrepl.DB, rng *rand.Rand) error {
	if err := db.DefineType("ORG", []fieldrepl.Field{{Name: "name", Kind: fieldrepl.String}, {Name: "budget", Kind: fieldrepl.Int}}); err != nil {
		return err
	}
	if err := db.DefineType("DEPT", []fieldrepl.Field{{Name: "name", Kind: fieldrepl.String}, {Name: "org", Kind: fieldrepl.Ref, RefType: "ORG"}}); err != nil {
		return err
	}
	if err := db.DefineType("EMP", p.empFields()); err != nil {
		return err
	}
	for _, s := range [][2]string{{"Org", "ORG"}, {"Dept", "DEPT"}, {"Emp", "EMP"}} {
		if err := db.CreateSet(s[0], s[1]); err != nil {
			return err
		}
	}
	p.budget = make([]int64, p.nOrg)
	p.deptOrg = make([]int, p.nDept)
	p.empDept = make([]int, p.nEmp)
	p.empsOfOrg = make([]int, p.nOrg)
	for i := range p.deptOrg {
		p.deptOrg[i] = i % p.nOrg
	}
	rng.Shuffle(p.nDept, func(i, j int) { p.deptOrg[i], p.deptOrg[j] = p.deptOrg[j], p.deptOrg[i] })
	for i := range p.empDept {
		p.empDept[i] = i % p.nDept
	}
	rng.Shuffle(p.nEmp, func(i, j int) { p.empDept[i], p.empDept[j] = p.empDept[j], p.empDept[i] })
	for _, d := range p.empDept {
		p.empsOfOrg[p.deptOrg[d]]++
	}
	orgs, err := loadSet(db, "Org", p.nOrg, func(i int) fieldrepl.V {
		p.budget[i] = int64(1000 + i)
		return fieldrepl.V{"name": fieldrepl.S(orgName(i)), "budget": fieldrepl.I(p.budget[i])}
	})
	if err != nil {
		return err
	}
	depts, err := loadSet(db, "Dept", p.nDept, func(i int) fieldrepl.V {
		return fieldrepl.V{"name": fieldrepl.S(deptName(i)), "org": fieldrepl.R(orgs[p.deptOrg[i]])}
	})
	if err != nil {
		return err
	}
	_, err = loadSet(db, "Emp", p.nEmp, func(i int) fieldrepl.V {
		return fieldrepl.V{"name": fieldrepl.S(empName(i)), "salary": fieldrepl.I(int64(30000 + i)), "dept": fieldrepl.R(depts[p.empDept[i]])}
	})
	return err
}

func (p *pathscan) userBytes() int64 {
	return int64(p.nOrg)*(6+8) + int64(p.nDept)*(8+10) + int64(p.nEmp)*(10+8+10)
}

func (p *pathscan) next(rng *rand.Rand, client, nclients, seq int, write bool) op {
	o := rng.Intn(p.nOrg)
	name := orgName(o)
	if write {
		v := int64(1_000_000 + seq)
		return op{
			write: true,
			stmt:  fmt.Sprintf("replace Org (budget = %d) where Org.name = %q", v, name),
			set:   "Org", where: fieldrepl.Pred{Expr: "name", Op: fieldrepl.EQ, Value: fieldrepl.S(name)},
			vals: fieldrepl.V{"budget": fieldrepl.I(v)},
			check: func(_ [][]string, n int) error {
				p.budget[o] = v
				return wantCount(n, 1)
			},
		}
	}
	return op{
		stmt: fmt.Sprintf("retrieve (Emp.name, Emp.dept.org.name, Emp.dept.org.budget) where Emp.dept.org.name = %q", name),
		q: fieldrepl.Query{Set: "Emp", Project: []string{"name", "dept.org.name", "dept.org.budget"},
			Where: &fieldrepl.Pred{Expr: "dept.org.name", Op: fieldrepl.EQ, Value: fieldrepl.S(name)}},
		check: func(rows [][]string, _ int) error {
			if err := wantRows(rows, p.empsOfOrg[o], 3); err != nil {
				return err
			}
			budget := strconv.FormatInt(p.budget[o], 10)
			for _, r := range rows {
				id, err := empID(r[0])
				if err != nil {
					return err
				}
				if id < 0 || id >= p.nEmp || p.deptOrg[p.empDept[id]] != o {
					return fmt.Errorf("%s is not in %s", r[0], name)
				}
				if r[1] != name || r[2] != budget {
					return fmt.Errorf("%s: got (%s, %s), want (%s, %s)", r[0], r[1], r[2], name, budget)
				}
			}
			return nil
		},
	}
}

func (p *pathscan) probe(w op) op {
	name := w.where.Value.Str()
	o, _ := strconv.Atoi(strings.TrimPrefix(name, "org-"))
	return op{
		q: fieldrepl.Query{Set: "Org", Project: []string{"budget"}, Where: &w.where},
		check: func(rows [][]string, _ int) error {
			if err := wantRows(rows, 1, 1); err != nil {
				return err
			}
			if want := strconv.FormatInt(p.budget[o], 10); rows[0][0] != want {
				return fmt.Errorf("%s budget: got %s, want %s", name, rows[0][0], want)
			}
			return nil
		},
	}
}

func (p *pathscan) sample() layerSample {
	return layerSample{fields: p.empFields(), count: p.nEmp, values: func(i int) fieldrepl.V {
		return fieldrepl.V{"name": fieldrepl.S(empName(i)), "salary": fieldrepl.I(int64(30000 + i))}
	}}
}

// ---- mix.inplace / mix.separate -------------------------------------------

// Section-6 model parameters (paper Figure 10 defaults).
const (
	mixS     = 10000 // |S|
	mixF     = 10    // sharing level: |R| = f * |S|
	mixK     = 20    // replicated field size, bytes
	mixRSize = 100   // r: R object bytes
	mixSSize = 200   // s: S object bytes
	// Pad lengths that bring the on-page footprint of an object to the
	// model's header + size, as internal/workload derives them: payload =
	// size + 20 - 7, less the encoded object header and fields.
	mixRPad = mixRSize + 13 - (3 + 10 + 8 + 2)
	mixSPad = mixSSize + 13 - (3 + 2 + mixK + 8 + 2)
)

// mix is the paper's Section-6 database: S objects each referenced by f
// objects of R through R.sref, assignment shuffled, unclustered B-trees on
// R.field_r and S.field_s, and the path R.sref.repfield replicated in-place
// or separately. Reads select an f_r = 0.001 range of R by field_r and
// project the replicated path; writes assign repfield over an f_s = 0.001
// range of S by field_s.
type mix struct {
	inplace     bool
	nS, nR      int
	readN, updN int      // objects per read range, per update range
	rep         []string // field_s -> current repfield (the model)
	sOfR        []int32  // field_r -> field_s of the referenced S object
	rPad, sPad  string
}

func newMix(sc scale, inplace bool) dataset {
	nS := scaled(mixS, sc.Div, 100)
	nR := nS * mixF
	return &mix{inplace: inplace, nS: nS, nR: nR, readN: scaled(nR, 1000, 1), updN: scaled(nS, 1000, 1),
		rPad: strings.Repeat("r", mixRPad), sPad: strings.Repeat("s", mixSPad)}
}

func repValue(prefix byte, n int) string { return fmt.Sprintf("%c%0*d", prefix, mixK-1, n) }

func (m *mix) rFields() []fieldrepl.Field {
	return []fieldrepl.Field{{Name: "sref", Kind: fieldrepl.Ref, RefType: "STYPE"},
		{Name: "field_r", Kind: fieldrepl.Int}, {Name: "pad", Kind: fieldrepl.String}}
}

func (m *mix) load(db *fieldrepl.DB, rng *rand.Rand) error {
	if err := db.DefineType("STYPE", []fieldrepl.Field{{Name: "repfield", Kind: fieldrepl.String},
		{Name: "field_s", Kind: fieldrepl.Int}, {Name: "pad", Kind: fieldrepl.String}}); err != nil {
		return err
	}
	if err := db.DefineType("RTYPE", m.rFields()); err != nil {
		return err
	}
	if err := db.CreateSet("S", "STYPE"); err != nil {
		return err
	}
	if err := db.CreateSet("R", "RTYPE"); err != nil {
		return err
	}
	// Keys are a random permutation of file order (unclustered indexes), and
	// every S object is referenced by exactly f objects of R, shuffled.
	fieldS := rng.Perm(m.nS)
	fieldR := rng.Perm(m.nR)
	refs := make([]int, m.nR)
	for i := range refs {
		refs[i] = i % m.nS
	}
	rng.Shuffle(m.nR, func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	m.rep = make([]string, m.nS)
	m.sOfR = make([]int32, m.nR)
	sOIDs, err := loadSet(db, "S", m.nS, func(i int) fieldrepl.V {
		m.rep[fieldS[i]] = repValue('r', i)
		return fieldrepl.V{"repfield": fieldrepl.S(m.rep[fieldS[i]]), "field_s": fieldrepl.I(int64(fieldS[i])), "pad": fieldrepl.S(m.sPad)}
	})
	if err != nil {
		return err
	}
	if _, err := loadSet(db, "R", m.nR, func(i int) fieldrepl.V {
		m.sOfR[fieldR[i]] = int32(fieldS[refs[i]])
		return fieldrepl.V{"sref": fieldrepl.R(sOIDs[refs[i]]), "field_r": fieldrepl.I(int64(fieldR[i])), "pad": fieldrepl.S(m.rPad)}
	}); err != nil {
		return err
	}
	if err := db.BuildIndex("r_field_r", "R", "field_r", false); err != nil {
		return err
	}
	if err := db.BuildIndex("s_field_s", "S", "field_s", false); err != nil {
		return err
	}
	strategy := fieldrepl.Separate
	if m.inplace {
		strategy = fieldrepl.InPlace
	}
	return db.Replicate("R.sref.repfield", strategy)
}

func (m *mix) userBytes() int64 {
	return int64(m.nS)*int64(mixK+8+mixSPad) + int64(m.nR)*int64(10+8+mixRPad)
}

func between(expr string, lo, hi int) fieldrepl.Pred {
	return fieldrepl.Pred{Expr: expr, Op: fieldrepl.Between, Value: fieldrepl.I(int64(lo)), Value2: fieldrepl.I(int64(hi))}
}

func (m *mix) next(rng *rand.Rand, client, nclients, seq int, write bool) op {
	if write {
		lo := rng.Intn(m.nS - m.updN + 1)
		hi := lo + m.updN - 1
		v := repValue('w', seq)
		return op{
			write: true,
			stmt:  fmt.Sprintf("replace S (repfield = %q) where S.field_s between %d and %d", v, lo, hi),
			set:   "S", where: between("field_s", lo, hi), vals: fieldrepl.V{"repfield": fieldrepl.S(v)},
			check: func(_ [][]string, n int) error {
				for k := lo; k <= hi; k++ {
					m.rep[k] = v
				}
				return wantCount(n, m.updN)
			},
		}
	}
	lo := rng.Intn(m.nR - m.readN + 1)
	hi := lo + m.readN - 1
	where := between("field_r", lo, hi)
	return op{
		stmt: fmt.Sprintf("retrieve (R.field_r, R.sref.repfield) where R.field_r between %d and %d", lo, hi),
		q:    fieldrepl.Query{Set: "R", Project: []string{"field_r", "sref.repfield"}, Where: &where},
		check: func(rows [][]string, _ int) error {
			if err := wantRows(rows, m.readN, 2); err != nil {
				return err
			}
			seen := make([]bool, m.readN)
			for _, r := range rows {
				k, err := strconv.Atoi(r[0])
				if err != nil || k < lo || k > hi || seen[k-lo] {
					return fmt.Errorf("field_r %q outside [%d,%d] or repeated", r[0], lo, hi)
				}
				seen[k-lo] = true
				if want := m.rep[m.sOfR[k]]; r[1] != want {
					return fmt.Errorf("R[field_r=%d].sref.repfield: got %q, want %q", k, r[1], want)
				}
			}
			return nil
		},
	}
}

func (m *mix) probe(w op) op {
	lo, hi := int(w.where.Value.Int()), int(w.where.Value2.Int())
	return op{
		q: fieldrepl.Query{Set: "S", Project: []string{"field_s", "repfield"}, Where: &w.where},
		check: func(rows [][]string, _ int) error {
			if err := wantRows(rows, hi-lo+1, 2); err != nil {
				return err
			}
			for _, r := range rows {
				k, err := strconv.Atoi(r[0])
				if err != nil || k < lo || k > hi {
					return fmt.Errorf("field_s %q outside [%d,%d]", r[0], lo, hi)
				}
				if r[1] != m.rep[k] {
					return fmt.Errorf("S[field_s=%d].repfield: got %q, want %q", k, r[1], m.rep[k])
				}
			}
			return nil
		},
	}
}

func (m *mix) sample() layerSample {
	return layerSample{fields: m.rFields(), count: m.nR, values: func(i int) fieldrepl.V {
		return fieldrepl.V{"field_r": fieldrepl.I(int64(i)), "pad": fieldrepl.S(m.rPad)}
	}}
}

// ---- serve.mixed ----------------------------------------------------------

// serve is Dept / Emp loaded in id order with a clustered B-tree on Emp.id
// and Emp.dept.name replicated in-place. Reads retrieve a 20-id range and
// project the replicated path; writes replace one employee's salary. Client
// c writes only ids congruent to c, so the model needs no lock and the final
// value of every salary is known.
type serve struct {
	nDept, nEmp, readN int
	empDept            []int
	salary             []int64 // id -> current salary (the model)
}

func newServe(sc scale) dataset {
	return &serve{nDept: scaled(200, sc.Div, 8), nEmp: scaled(20000, sc.Div, 100), readN: 20}
}

func (s *serve) empFields() []fieldrepl.Field {
	return []fieldrepl.Field{{Name: "id", Kind: fieldrepl.Int}, {Name: "name", Kind: fieldrepl.String},
		{Name: "salary", Kind: fieldrepl.Int}, {Name: "dept", Kind: fieldrepl.Ref, RefType: "DEPT"}}
}

func (s *serve) load(db *fieldrepl.DB, rng *rand.Rand) error {
	if err := db.DefineType("DEPT", []fieldrepl.Field{{Name: "name", Kind: fieldrepl.String}, {Name: "budget", Kind: fieldrepl.Int}}); err != nil {
		return err
	}
	if err := db.DefineType("EMP", s.empFields()); err != nil {
		return err
	}
	if err := db.CreateSet("Dept", "DEPT"); err != nil {
		return err
	}
	if err := db.CreateSet("Emp", "EMP"); err != nil {
		return err
	}
	s.empDept = make([]int, s.nEmp)
	s.salary = make([]int64, s.nEmp)
	for i := range s.empDept {
		s.empDept[i] = i % s.nDept
	}
	rng.Shuffle(s.nEmp, func(i, j int) { s.empDept[i], s.empDept[j] = s.empDept[j], s.empDept[i] })
	depts, err := loadSet(db, "Dept", s.nDept, func(i int) fieldrepl.V {
		return fieldrepl.V{"name": fieldrepl.S(deptName(i)), "budget": fieldrepl.I(int64(100 + i))}
	})
	if err != nil {
		return err
	}
	if _, err := loadSet(db, "Emp", s.nEmp, func(i int) fieldrepl.V {
		s.salary[i] = int64(30000 + i)
		return fieldrepl.V{"id": fieldrepl.I(int64(i)), "name": fieldrepl.S(empName(i)),
			"salary": fieldrepl.I(s.salary[i]), "dept": fieldrepl.R(depts[s.empDept[i]])}
	}); err != nil {
		return err
	}
	if err := db.BuildIndex("emp_id", "Emp", "id", true); err != nil {
		return err
	}
	return db.Replicate("Emp.dept.name", fieldrepl.InPlace)
}

func (s *serve) userBytes() int64 {
	return int64(s.nDept)*(8+8) + int64(s.nEmp)*(8+10+8+10)
}

func (s *serve) next(rng *rand.Rand, client, nclients, seq int, write bool) op {
	if write {
		id := rng.Intn(s.nEmp/nclients)*nclients + client
		v := int64(1_000_000 + seq)
		return op{
			write: true,
			stmt:  fmt.Sprintf("replace Emp (salary = %d) where Emp.id = %d", v, id),
			set:   "Emp", where: fieldrepl.Pred{Expr: "id", Op: fieldrepl.EQ, Value: fieldrepl.I(int64(id))},
			vals: fieldrepl.V{"salary": fieldrepl.I(v)},
			check: func(_ [][]string, n int) error {
				s.salary[id] = v
				return wantCount(n, 1)
			},
		}
	}
	lo := rng.Intn(s.nEmp - s.readN + 1)
	hi := lo + s.readN - 1
	where := between("id", lo, hi)
	return op{
		stmt: fmt.Sprintf("retrieve (Emp.name, Emp.dept.name) where Emp.id between %d and %d", lo, hi),
		q:    fieldrepl.Query{Set: "Emp", Project: []string{"name", "dept.name"}, Where: &where},
		check: func(rows [][]string, _ int) error {
			if err := wantRows(rows, s.readN, 2); err != nil {
				return err
			}
			seen := make([]bool, s.readN)
			for _, r := range rows {
				id, err := empID(r[0])
				if err != nil {
					return err
				}
				if id < lo || id > hi || seen[id-lo] {
					return fmt.Errorf("%s outside [%d,%d] or repeated", r[0], lo, hi)
				}
				seen[id-lo] = true
				if want := deptName(s.empDept[id]); r[1] != want {
					return fmt.Errorf("%s.dept.name: got %q, want %q", r[0], r[1], want)
				}
			}
			return nil
		},
	}
}

func (s *serve) probe(w op) op {
	id := int(w.where.Value.Int())
	return op{
		q: fieldrepl.Query{Set: "Emp", Project: []string{"salary"}, Where: &w.where},
		check: func(rows [][]string, _ int) error {
			if err := wantRows(rows, 1, 1); err != nil {
				return err
			}
			if want := strconv.FormatInt(s.salary[id], 10); rows[0][0] != want {
				return fmt.Errorf("Emp[id=%d].salary: got %s, want %s", id, rows[0][0], want)
			}
			return nil
		},
	}
}

func (s *serve) sample() layerSample {
	return layerSample{fields: s.empFields(), count: s.nEmp, values: func(i int) fieldrepl.V {
		return fieldrepl.V{"id": fieldrepl.I(int64(i)), "name": fieldrepl.S(empName(i)), "salary": fieldrepl.I(int64(30000 + i))}
	}}
}
