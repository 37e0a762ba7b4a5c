package core

import (
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// BuildPath constructs a freshly registered path's replicated state over the
// data already in the database: hidden values in every source object, link
// objects along the inverted path, and (for separate paths) the S′ set. It
// is the "one-time cost to build it" the paper refers to (§4.1.2).
//
// When a separate path joins an existing group with additional fields, the
// group's S′ file is rebuilt to the wider layout.
func (m *Manager) BuildPath(p *catalog.Path) error {
	if p.Strategy == catalog.Separate {
		g := p.Group
		if g.HasFile && g.Built == len(g.Fields) {
			// Same fields, nothing new to materialize.
			return nil
		}
		// Fresh build, or a second path widened the group (rebuild): either
		// way the S′ file is constructed in terminal-set order, the
		// clustering the paper's separate strategy depends on.
		return m.buildGroupOrdered(p)
	}
	srcFile, err := m.st.SetFile(p.Spec.Source)
	if err != nil {
		return err
	}
	srcType := p.Types[0]
	err = srcFile.Scan(func(oid pagefile.OID, payload []byte) error {
		src, err := schema.Decode(srcType, payload)
		if err != nil {
			return err
		}
		if err := m.ensureChain(p, oid, src); err != nil {
			return err
		}
		return m.st.WriteObject(oid, src)
	})
	if err != nil {
		return err
	}
	if p.Strategy == catalog.Separate {
		p.Group.Built = len(p.Group.Fields)
	}
	return nil
}

// HiddenReader is the part of a source object ReadReplicated consults: its
// hidden replicated values. A decoded *schema.Object and a *schema.View over
// the encoded record both provide it.
type HiddenReader interface {
	GetHidden(pathID, fieldIdx uint8) (schema.Value, bool)
}

// ReadReplicated resolves path p's replicated value with field index
// fieldIdx for a source object, using only the replicated state: the hidden
// value directly for in-place paths, or one S′ fetch for separate paths.
// This is the fast path the query executor uses to avoid functional joins.
//
// For paths with deferred propagation the caller must drain pending updates
// (FlushPath) before decoding src; the engine's executor does this once per
// query for every deferred path the query resolves through.
//
// The S′ fetch a separate path performs is charged to tr (nil = untraced).
func (m *Manager) ReadReplicated(p *catalog.Path, src HiddenReader, fieldIdx uint8, tr *obs.Trace) (schema.Value, error) {
	if p.Strategy == catalog.InPlace {
		v, ok := src.GetHidden(p.ID, fieldIdx)
		if !ok {
			// Path registered after a broken chain: behave as zero value.
			for _, f := range p.Fields {
				if f.Idx == fieldIdx {
					return schema.Zero(f.Kind), nil
				}
			}
			return schema.Value{}, nil
		}
		return v, nil
	}
	g := p.Group
	ref, ok := src.GetHidden(g.ID, catalog.HiddenSPrimeIdx)
	if !ok || ref.R.IsNil() {
		for _, f := range g.Fields {
			if f.Idx == fieldIdx {
				return schema.Zero(f.Kind), nil
			}
		}
		return schema.Value{}, nil
	}
	sobj, err := m.ReadSPrime(g, ref.R, tr)
	if err != nil {
		return schema.Value{}, err
	}
	return sobj.Values[fieldIdx], nil
}
