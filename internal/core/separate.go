package core

import (
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// newSPrimeObject builds an S′ object carrying terminal's replicated values.
func newSPrimeObject(g *catalog.Group, terminal *schema.Object) *schema.Object {
	o := schema.NewObject(g.SPrimeType())
	for _, f := range g.Fields {
		o.Values[f.Idx] = terminal.Values[f.Terminal]
	}
	return o
}

// readSPrime returns the encoded S′ object at soid for group g, charging the
// page reads to tr (nil = untraced).
func (m *Manager) readSPrime(g *catalog.Group, soid pagefile.OID, tr *obs.Trace) ([]byte, error) {
	file, err := m.st.GroupFile(g)
	if err != nil {
		return nil, err
	}
	return file.WithTrace(tr).Read(soid)
}

// ReadSPrime loads and decodes the S′ object at soid for group g, charging
// the page reads to tr (nil = untraced).
func (m *Manager) ReadSPrime(g *catalog.Group, soid pagefile.OID, tr *obs.Trace) (*schema.Object, error) {
	data, err := m.readSPrime(g, soid, tr)
	if err != nil {
		return nil, err
	}
	return schema.Decode(g.SPrimeType(), data)
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
	soid, err := file.InsertNear(newSPrimeObject(g, term.obj).Encode(), term.oid.Page)
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
	sobj, err := schema.Decode(g.SPrimeType(), data)
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
