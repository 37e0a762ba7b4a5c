package core

import (
	"fmt"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Verify checks the global replication invariant over every registered path
// and returns all violations found. It is the oracle used by property-based
// tests: after any sequence of inserts, deletes, field updates and
// reference-attribute updates, for every source object R and path P,
//
//   - (in-place) R's hidden value for each replicated field equals the value
//     obtained by walking the forward path, or the zero value if the chain
//     is broken;
//   - (separate) R's hidden S′ reference resolves to an S′ object whose
//     fields equal the forward-path values, and S′ refcounts equal the
//     number of sources sharing each terminal (no other object holds an S′
//     entry);
//   - link structures are exact: T lists R as a referrer if and only if R
//     references T on the path (and is itself on the path); on a collapsed
//     path a terminal lists exactly the sources reaching it, and exactly the
//     intermediates they route through carry a marker pair.
//
// Verify first drains any deferred propagations: the invariant is defined
// over the quiesced state.
func (m *Manager) Verify() []error {
	if err := m.FlushAllPending(); err != nil {
		return []error{err}
	}
	var errs []error
	for _, p := range m.cat.Paths() {
		errs = append(errs, m.verifyPath(p)...)
	}
	return errs
}

func (m *Manager) verifyPath(p *catalog.Path) []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("path %s (%s): "+format, append([]any{p.Spec, p.Strategy}, args...)...))
	}
	srcFile, err := m.st.SetFile(p.Spec.Source)
	if err != nil {
		return []error{err}
	}
	srcType := p.Types[0]

	// expectations accumulated from forward walks:
	type linkKey struct {
		link   uint8
		target pagefile.OID
	}
	wantRefs := map[linkKey]map[pagefile.OID]bool{}                   // link structure contents
	wantSep := map[pagefile.OID]int{}                                 // terminal -> #sources (separate)
	collapsedTags := map[pagefile.OID]map[pagefile.OID]pagefile.OID{} // terminal -> source -> tag

	scanErr := srcFile.Scan(func(oid pagefile.OID, payload []byte) error {
		src, err := schema.Decode(srcType, payload)
		if err != nil {
			return err
		}
		chain, err := m.walkChain(p, src)
		if err != nil {
			return err
		}
		var termObj *schema.Object
		var termOID pagefile.OID
		if t := terminalOf(p, chain); t != nil {
			termObj = t.obj
			termOID = t.oid
		}
		// Hidden values.
		switch p.Strategy {
		case catalog.InPlace:
			vals := terminalValues(p, termObj)
			for _, f := range p.Fields {
				got, ok := src.GetHidden(p.ID, f.Idx)
				if !ok {
					got = schema.Zero(f.Kind)
				}
				if !got.Equal(vals[f.Idx]) {
					fail("source %v hidden %s = %v, forward walk says %v", oid, f.Name, got, vals[f.Idx])
				}
			}
		case catalog.Separate:
			g := p.Group
			ref, ok := src.GetHidden(g.ID, catalog.HiddenSPrimeIdx)
			if termObj == nil {
				if ok && !ref.R.IsNil() {
					fail("source %v has S′ ref %v but its chain is broken", oid, ref.R)
				}
			} else {
				se := termObj.FindSep(g.ID)
				if se == nil {
					fail("terminal %v of source %v has no S′ entry", termOID, oid)
				} else {
					if !ok || ref.R != se.SOID {
						fail("source %v S′ ref %v does not match terminal's %v", oid, ref, se.SOID)
					}
					sobj, err := m.ReadSPrime(g, se.SOID, nil)
					if err != nil {
						fail("reading S′ %v: %v", se.SOID, err)
					} else {
						for _, f := range g.Fields {
							if !sobj.Values[f.Idx].Equal(termObj.Values[f.Terminal]) {
								fail("S′ %v field %s = %v, terminal %v has %v", se.SOID, f.Name, sobj.Values[f.Idx], termOID, termObj.Values[f.Terminal])
							}
						}
					}
				}
				wantSep[termOID]++
			}
		}
		// Link-structure expectations.
		if p.Collapsed {
			if termObj != nil && len(chain) >= 2 {
				if collapsedTags[termOID] == nil {
					collapsedTags[termOID] = map[pagefile.OID]pagefile.OID{}
				}
				collapsedTags[termOID][oid] = chain[0].oid
			}
			return nil
		}
		referrer := oid
		for pos := 0; pos < len(p.Links) && pos < len(chain); pos++ {
			k := linkKey{link: p.Links[pos].ID, target: chain[pos].oid}
			if wantRefs[k] == nil {
				wantRefs[k] = map[pagefile.OID]bool{}
			}
			wantRefs[k][referrer] = true
			referrer = chain[pos].oid
		}
		return nil
	})
	if scanErr != nil {
		return append(errs, scanErr)
	}

	// Link structures: exact. Every object of a link's target type lists
	// exactly the referrers the forward walks derived for it (a link's
	// contents depend only on its source set and ref prefix, so every path
	// sharing it derives the same ones).
	for pos, l := range p.Links {
		err := m.scanType(p.Types[pos+1], func(oid pagefile.OID, obj *schema.Object) {
			want := wantRefs[linkKey{link: l.ID, target: oid}]
			got, err := m.referrersOf(obj, l)
			if err != nil {
				fail("reading referrers of %v: %v", oid, err)
				return
			}
			listed := make(map[pagefile.OID]bool, len(got))
			for _, r := range got {
				if !want[r] {
					fail("link %d target %v lists spurious referrer %v", l.ID, oid, r)
				}
				listed[r] = true
			}
			for r := range want {
				if !listed[r] {
					fail("link %d target %v is missing referrer %v", l.ID, oid, r)
				}
			}
		})
		if err != nil {
			return append(errs, err)
		}
	}
	// Collapsed structure: exact. A marker pair on exactly the intermediates
	// some source routes through — updates find the intermediate by it — and
	// on each terminal a tagged link object listing exactly the sources that
	// reach it, each tagged with its intermediate.
	if p.Collapsed {
		cl := p.CollapsedLink
		routing := map[pagefile.OID]bool{}
		for _, srcs := range collapsedTags {
			for _, tag := range srcs {
				routing[tag] = true
			}
		}
		err := m.scanType(p.Types[1], func(oid pagefile.OID, obj *schema.Object) {
			lp := obj.FindLink(cl.ID)
			marked := lp != nil && lp.Mode == schema.LinkModeInline
			if marked && !routing[oid] {
				fail("intermediate %v carries a collapsed marker but routes no source", oid)
			} else if !marked && routing[oid] {
				fail("intermediate %v routes sources but carries no collapsed marker", oid)
			}
		})
		if err != nil {
			return append(errs, err)
		}
		store, err := m.linkStore(cl)
		if err != nil {
			return append(errs, err)
		}
		err = m.scanType(p.TerminalType(), func(termOID pagefile.OID, tObj *schema.Object) {
			want := collapsedTags[termOID]
			lp := tObj.FindLink(cl.ID)
			if lp == nil || lp.Mode != schema.LinkModeObject {
				if len(want) > 0 {
					fail("collapsed terminal %v has no link pair", termOID)
				}
				return
			}
			lobj, err := store.Read(lp.LinkOID)
			if err != nil {
				fail("reading collapsed link object %v: %v", lp.LinkOID, err)
				return
			}
			if lobj.Len() != len(want) {
				fail("collapsed terminal %v lists %d sources, want %d", termOID, lobj.Len(), len(want))
			}
			for _, r := range lobj.Refs {
				tag, ok := want[r.OID]
				if !ok {
					fail("collapsed terminal %v lists spurious source %v", termOID, r.OID)
				} else if r.Tag != tag {
					fail("collapsed terminal %v source %v tagged %v, want %v", termOID, r.OID, r.Tag, tag)
				}
			}
		})
		if err != nil {
			return append(errs, err)
		}
	}
	// Separate refcounts: exact, and no S′ entry on an object no source
	// reaches.
	if p.Strategy == catalog.Separate {
		g := p.Group
		err := m.scanType(p.TerminalType(), func(oid pagefile.OID, obj *schema.Object) {
			if se := obj.FindSep(g.ID); se != nil && se.RefCount != uint32(wantSep[oid]) {
				fail("terminal %v refcount = %d, want %d", oid, se.RefCount, wantSep[oid])
			}
		})
		if err != nil {
			return append(errs, err)
		}
	}
	return errs
}

// scanType decodes every object of every set holding type t.
func (m *Manager) scanType(t *schema.Type, fn func(pagefile.OID, *schema.Object)) error {
	for _, set := range m.cat.Sets() {
		if set.TypeName != t.Name {
			continue
		}
		file, err := m.st.SetFile(set.Name)
		if err != nil {
			return err
		}
		err = file.Scan(func(oid pagefile.OID, payload []byte) error {
			obj, err := schema.Decode(t, payload)
			if err != nil {
				return err
			}
			fn(oid, obj)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
