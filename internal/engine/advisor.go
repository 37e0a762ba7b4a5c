package engine

import (
	"sort"

	"github.com/exodb/fieldrepl/internal/advisor"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/costmodel"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// The advisor's engine glue. The engine stamps replication-relevant path keys
// onto traces at plan time — while it already holds the right locks and the
// catalog — so the advisor's trace subscription never calls back into the
// engine. The catalog is consulted again only at Advise() time, under the
// shared lock, to turn aggregated keys into costable facts.

// pathKeys returns the canonical path keys (PathSpec dotted form,
// "Set.ref1...field") of every multi-level expression the program resolves —
// predicates, filters, and projections. Unregistered paths are included
// deliberately: an often-read unreplicated path is exactly what the advisor
// should suggest replicating.
func (p *rowProgram) pathKeys() []string {
	var keys []string
	for _, a := range p.accs {
		if len(a.spec.Refs) > 0 {
			keys = append(keys, a.spec.String())
		}
	}
	sort.Strings(keys)
	return keys
}

// stampUpdateMeta stamps an update's advisor metadata on the session trace:
// the field names written and the keys of every replication path whose
// terminal type is the updated set's type and whose replicated fields
// intersect the written ones — the propagations this update pays for.
func (s *sess) stampUpdateMeta(typ *schema.Type, vals map[string]schema.Value) {
	if s.tr == nil {
		return
	}
	fields := make([]string, 0, len(vals))
	for f := range vals {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	s.tr.SetFields(fields)
	var keys []string
	for _, p := range s.db.cat.Paths() {
		if p.TerminalType().Name != typ.Name {
			continue
		}
		hit := false
		for _, rf := range p.Fields {
			if _, ok := vals[rf.Name]; ok {
				hit = true
				break
			}
		}
		if hit {
			keys = append(keys, p.Spec.String())
		}
	}
	sort.Strings(keys)
	s.tr.SetPaths(keys)
}

// Advise returns the advisor's current report: per-path strategy
// recommendations ranked by predicted savings, plus cost-model drift
// summaries. With the advisor disabled it returns a zero report with
// Enabled=false. Recommend-only: nothing is applied.
func (db *DB) Advise() advisor.Report {
	if db.advisor == nil {
		return advisor.Report{}
	}
	return db.advisor.Report(db.pathFacts(db.advisor.Keys()))
}

// pathFacts assembles the costable facts for every registered replication
// path plus every observed-but-unregistered path key, under the shared lock:
// current strategy, clustering setting, and measured cost-model parameters.
func (db *DB) pathFacts(observed []string) []advisor.PathFacts {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var facts []advisor.PathFacts
	have := map[string]bool{}
	for _, p := range db.cat.Paths() {
		st := costmodel.InPlace
		if p.Strategy == catalog.Separate {
			st = costmodel.Separate
		}
		k := 0.0
		for _, rf := range p.Fields {
			k += fieldBytes(rf.Kind)
		}
		pm, setting, ok := db.pathModelParams(p.Spec, k)
		if !ok {
			continue
		}
		key := p.Spec.String()
		have[key] = true
		facts = append(facts, advisor.PathFacts{
			Key: key, Current: st, Setting: setting, Params: pm, Deferred: p.Deferred,
		})
	}
	for _, key := range observed {
		if have[key] {
			continue
		}
		spec, err := catalog.ParsePathSpec(key)
		if err != nil {
			continue
		}
		pm, setting, ok := db.pathModelParams(spec, 0)
		if !ok {
			continue
		}
		facts = append(facts, advisor.PathFacts{
			Key: key, Current: costmodel.NoReplication, Setting: setting, Params: pm,
		})
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i].Key < facts[j].Key })
	return facts
}

// pathModelParams derives live Section-6 parameters for a path spec from the
// catalog and store: measured cardinalities (SCount, F), schema-derived
// object sizes (RSize, SSize, K), and the actual page capacity. Constants the
// engine cannot measure (B+tree fanout, header overhead) keep the Figure 10
// defaults. kBytes overrides the replicated-field size when the caller knows
// the registered field set; zero derives it from the terminal field. Callers
// hold db.mu.
func (db *DB) pathModelParams(spec catalog.PathSpec, kBytes float64) (costmodel.Params, costmodel.Setting, bool) {
	pm := costmodel.Default()
	srcType, err := db.cat.SetType(spec.Source)
	if err != nil {
		return pm, costmodel.Unclustered, false
	}
	t := srcType
	for _, ref := range spec.Refs {
		f, ok := t.Field(ref)
		if !ok || f.Kind != schema.KindRef {
			return pm, costmodel.Unclustered, false
		}
		nt, ok := db.cat.TypeByName(f.RefType)
		if !ok {
			return pm, costmodel.Unclustered, false
		}
		t = nt
	}
	termField, ok := t.Field(spec.Field)
	if !ok || termField.Kind == schema.KindRef {
		return pm, costmodel.Unclustered, false
	}
	if kBytes <= 0 {
		kBytes = fieldBytes(termField.Kind)
	}

	sess := db.readSess(nil)
	srcCard := sess.setStats(spec.Source).Card
	// The terminal objects live in whichever set carries the terminal type;
	// sets are sorted so multi-set types resolve deterministically.
	termCard := 1.0
	sets := db.cat.Sets()
	sort.Slice(sets, func(i, j int) bool { return sets[i].Name < sets[j].Name })
	for _, cs := range sets {
		if cs.TypeName == t.Name {
			termCard = sess.setStats(cs.Name).Card
			break
		}
	}
	if termCard < 1 {
		termCard = 1
	}
	if srcCard < 1 {
		srcCard = 1
	}

	pm.B = float64(pagefile.UserBytes)
	pm.SCount = termCard
	pm.F = srcCard / termCard
	pm.K = kBytes
	pm.RSize = objBytes(srcType)
	pm.SSize = objBytes(t)
	pm.TSize = pm.RSize

	setting := costmodel.Unclustered
	for _, ix := range db.cat.IndexesOn(spec.Source) {
		if ix.Clustered {
			setting = costmodel.Clustered
			break
		}
	}
	return pm, setting, true
}
