package core

import (
	"fmt"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// groupType builds the synthetic type describing a group's S′ objects: one
// field per replicated field, in index order. The paper stores "the
// replicated values for D1.name and D1.budget together in one object"
// (Figure 7); the synthetic type is that object's layout.
func groupType(g *catalog.Group) (*schema.Type, error) {
	fields := make([]schema.Field, len(g.Fields))
	for _, f := range g.Fields {
		fields[f.Idx] = schema.Field{Name: f.Name, Kind: f.Kind}
	}
	t, err := schema.NewType(fmt.Sprintf("__sprime_%d", g.ID), 0x8000|uint16(g.ID), fields)
	if err != nil {
		// Group fields normally come from validated paths, but a corrupted
		// catalog snapshot can carry arbitrary field lists — surface that as
		// an error rather than tearing the process down.
		return nil, fmt.Errorf("core: building S′ type for group %d: %w", g.ID, err)
	}
	return t, nil
}

// newSPrimeObject builds an S′ object carrying terminal's replicated values.
func newSPrimeObject(g *catalog.Group, terminal *schema.Object) (*schema.Object, error) {
	t, err := groupType(g)
	if err != nil {
		return nil, err
	}
	o := schema.NewObject(t)
	for _, f := range g.Fields {
		o.Values[f.Idx] = terminal.Values[f.Terminal]
	}
	return o, nil
}

// ReadSPrime loads and decodes the S′ object at soid for group g, charging
// the page reads to tr (nil = untraced).
func (m *Manager) ReadSPrime(g *catalog.Group, soid pagefile.OID, tr *obs.Trace) (*schema.Object, error) {
	file, err := m.st.GroupFile(g)
	if err != nil {
		return nil, err
	}
	data, err := file.WithTrace(tr).Read(soid)
	if err != nil {
		return nil, err
	}
	t, err := groupType(g)
	if err != nil {
		return nil, err
	}
	return schema.Decode(t, data)
}

// ensureSeparateTerminal registers src at the terminal of separate path p:
// the terminal gets (or shares) an S′ object, its refcount counts src, and
// src's hidden S′ reference is installed. chain is the walk from src.
func (m *Manager) ensureSeparateTerminal(p *catalog.Path, srcOID pagefile.OID, src *schema.Object, chain []chainEntry) error {
	g := p.Group
	term := terminalOf(p, chain)
	if term == nil {
		src.SetHidden(g.ID, catalog.HiddenSPrimeIdx, schema.RefValue(pagefile.NilOID))
		return nil
	}
	se := term.obj.FindSep(g.ID)
	if se != nil {
		if prev, ok := src.GetHidden(g.ID, catalog.HiddenSPrimeIdx); ok && prev.R == se.SOID {
			return nil // already registered
		}
		se.RefCount++
		if err := m.st.WriteObject(term.oid, term.obj); err != nil {
			return err
		}
		src.SetHidden(g.ID, catalog.HiddenSPrimeIdx, schema.RefValue(se.SOID))
		return nil
	}
	file, err := m.st.GroupFile(g)
	if err != nil {
		return err
	}
	sobj, err := newSPrimeObject(g, term.obj)
	if err != nil {
		return err
	}
	soid, err := file.InsertNear(sobj.Encode(), term.oid.Page)
	if err != nil {
		return err
	}
	term.obj.SetSep(schema.SepEntry{GroupID: g.ID, SOID: soid, RefCount: 1})
	if err := m.st.WriteObject(term.oid, term.obj); err != nil {
		return err
	}
	src.SetHidden(g.ID, catalog.HiddenSPrimeIdx, schema.RefValue(soid))
	return nil
}

// releaseSeparateTerminal drops src's registration at the terminal of p,
// deleting the S′ object when its refcount reaches zero.
func (m *Manager) releaseSeparateTerminal(p *catalog.Path, srcOID pagefile.OID, src *schema.Object, chain []chainEntry) error {
	g := p.Group
	term := terminalOf(p, chain)
	if term == nil {
		src.SetHidden(g.ID, catalog.HiddenSPrimeIdx, schema.RefValue(pagefile.NilOID))
		return nil
	}
	se := term.obj.FindSep(g.ID)
	if se == nil {
		src.SetHidden(g.ID, catalog.HiddenSPrimeIdx, schema.RefValue(pagefile.NilOID))
		return nil
	}
	if hv, ok := src.GetHidden(g.ID, catalog.HiddenSPrimeIdx); !ok || hv.R != se.SOID {
		// src was never registered at this terminal (e.g. broken chain at
		// registration time); nothing to release.
		src.SetHidden(g.ID, catalog.HiddenSPrimeIdx, schema.RefValue(pagefile.NilOID))
		return nil
	}
	se.RefCount--
	if se.RefCount == 0 {
		file, err := m.st.GroupFile(g)
		if err != nil {
			return err
		}
		if err := file.Delete(se.SOID); err != nil {
			return err
		}
		term.obj.RemoveSep(g.ID)
	}
	if err := m.st.WriteObject(term.oid, term.obj); err != nil {
		return err
	}
	src.SetHidden(g.ID, catalog.HiddenSPrimeIdx, schema.RefValue(pagefile.NilOID))
	return nil
}

// refreshSPrime re-copies the group's replicated fields from terminal into
// the S′ object at soid. This is the separate strategy's whole update
// propagation for data fields: one shared object, one write (§5.2).
func (m *Manager) refreshSPrime(g *catalog.Group, soid pagefile.OID, terminal *schema.Object) error {
	file, err := m.st.GroupFile(g)
	if err != nil {
		return err
	}
	data, err := file.Read(soid)
	if err != nil {
		return err
	}
	gt, err := groupType(g)
	if err != nil {
		return err
	}
	sobj, err := schema.Decode(gt, data)
	if err != nil {
		return err
	}
	changed := false
	for _, f := range g.Fields {
		v := terminal.Values[f.Terminal]
		if !sobj.Values[f.Idx].Equal(v) {
			sobj.Values[f.Idx] = v
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return file.Update(soid, sobj.Encode())
}
