package core

import (
	"fmt"
	"slices"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/links"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// BuildPath constructs a freshly registered path's replicated state over the
// data already in the database: hidden values in every source object, link
// objects along the inverted path, and (for separate paths) the S′ set. It
// is the "one-time cost to build it" the paper refers to (§4.1.2).
//
// Links p shares with a path registered before it already hold every
// referrer (their contents depend on the source set and ref prefix alone, and
// DML keeps them exact), so only p's own links are written. A separate path
// that shares a live S′ group has nothing to build: the group already holds
// its fields. One that brought a group of its own (a new one, or a wider copy
// of the live one) builds it in full, beside the live group it will replace.
func (m *Manager) BuildPath(p *catalog.Path) error {
	if p.Group != nil && !m.cat.SoleGroupUsers(p.Group, p) {
		return nil
	}
	return m.build(p, func(l *catalog.Link) bool { return m.cat.SoleLinkUsers(l, p) })
}

// buildRef is one edge of the inverted path under construction: referrer
// references target (through tag, on a collapsed path) and stands for n
// source objects.
type buildRef struct {
	target, referrer, tag pagefile.OID
	n                     uint32
}

// build derives p's replicated state from the primary objects by sorting
// rather than by registering one source at a time:
//
//  1. one physical-order scan of the source set emits a (target, source) pair
//     per non-null first reference;
//  2. level by level, the pairs are sorted by target and each target object is
//     read once, in its set's physical order: its link structure is written at
//     its final size (for the links owns admits), and it either passes one
//     pair on to the next level or, as a terminal, yields the replicated
//     values or a fresh S′ object — so link and S′ files come out in the same
//     physical order as the objects they shadow (§4.1, §5), with no record
//     ever grown after it was placed;
//  3. one physical-order pass over the source set installs the hidden values
//     or S′ references, resolved through the per-level target memos.
//
// The working set is the pair list — one buildRef (40 B) per source object at
// the first level, one per distinct target above it — plus an OID-to-OID map
// entry per distinct target per level.
func (m *Manager) build(p *catalog.Path, owns func(*catalog.Link) bool) error {
	srcFile, err := m.st.SetFile(p.Spec.Source)
	if err != nil {
		return err
	}
	srcType := p.Types[0]
	ref0 := srcType.FieldIndex(p.Spec.Refs[0])
	if ref0 < 0 || srcType.Fields[ref0].Kind != schema.KindRef {
		return fmt.Errorf("core: path %s: %s.%s is not a reference attribute", p.Spec, srcType.Name, p.Spec.Refs[0])
	}
	var sprime *heap.File
	if p.Group != nil {
		if sprime, err = m.st.GroupFile(p.Group); err != nil {
			return err
		}
	}

	var refs []buildRef
	var view schema.View
	err = srcFile.Scan(func(oid pagefile.OID, payload []byte) error {
		if err := view.Reset(srcType, payload); err != nil {
			return err
		}
		if t := view.Ref(ref0); !t.IsNil() {
			refs = append(refs, buildRef{target: t, referrer: oid, n: 1})
		}
		return nil
	})
	if err != nil {
		return err
	}

	nLevels := len(p.Spec.Refs)
	// next[k] maps each level-k target to the object its reference leads to;
	// a target whose reference is null has no entry, which breaks the chain of
	// every source below it.
	next := make([]map[pagefile.OID]pagefile.OID, nLevels-1)
	termVals := map[pagefile.OID]map[uint8]schema.Value{} // in-place: terminal -> replicated values
	termSOID := map[pagefile.OID]pagefile.OID{}           // separate: terminal -> S′ object
	for k := 0; k < nLevels; k++ {
		slices.SortFunc(refs, func(a, b buildRef) int {
			if c := a.target.Compare(b.target); c != 0 {
				return c
			}
			return a.referrer.Compare(b.referrer)
		})
		var up []buildRef
		if k < nLevels-1 {
			next[k] = map[pagefile.OID]pagefile.OID{}
		}
		ownLink := k < len(p.Links) && owns(p.Links[k])
		for len(refs) > 0 {
			target := refs[0].target
			end := 1
			for end < len(refs) && refs[end].target == target {
				end++
			}
			group := refs[:end]
			refs = refs[end:]
			obj, err := m.st.ReadObject(target, p.Types[k+1])
			if err != nil {
				return err
			}
			changed := false
			switch {
			case p.Collapsed && k == 0:
				// The intermediate carries only a marker pair, so updates to
				// its reference attribute are noticed.
				if obj.FindLink(p.CollapsedLink.ID) == nil {
					obj.SetLink(schema.LinkPair{LinkID: p.CollapsedLink.ID, Mode: schema.LinkModeInline})
					changed = true
				}
			case p.Collapsed:
				lobj := &links.Object{Tagged: true, Refs: make([]links.Ref, len(group))}
				for i, r := range group {
					lobj.Refs[i] = links.Ref{OID: r.referrer, Tag: r.tag}
				}
				store, err := m.linkStore(p.CollapsedLink)
				if err != nil {
					return err
				}
				loid, err := store.Create(lobj, target.Page)
				if err != nil {
					return err
				}
				obj.SetLink(schema.LinkPair{LinkID: p.CollapsedLink.ID, Mode: schema.LinkModeObject, LinkOID: loid})
				changed = true
			case ownLink:
				referrers := make([]pagefile.OID, len(group))
				for i, r := range group {
					referrers[i] = r.referrer
				}
				if err := m.setReferrers(p.Links[k], target, obj, referrers); err != nil {
					return err
				}
				changed = true
			}
			var sources uint32
			for _, r := range group {
				sources += r.n
			}
			if k < nLevels-1 {
				nt, err := refValue(obj, p.Spec.Refs[k+1])
				if err != nil {
					return err
				}
				switch {
				case !nt.IsNil() && p.Collapsed:
					// The terminal's tagged link object lists the sources
					// themselves, each tagged with this intermediate.
					for _, r := range group {
						up = append(up, buildRef{target: nt, referrer: r.referrer, tag: target, n: 1})
					}
					next[k][target] = nt
				case !nt.IsNil():
					up = append(up, buildRef{target: nt, referrer: target, n: sources})
					next[k][target] = nt
				case p.Collapsed:
					return fmt.Errorf("core: collapsed path %s requires non-null references", p.Spec)
				}
			} else if p.Group != nil {
				soid, err := sprime.Insert(newSPrimeObject(p.Group, obj).Encode())
				if err != nil {
					return err
				}
				obj.SetSep(schema.SepEntry{GroupID: p.Group.ID, SOID: soid, RefCount: sources})
				changed = true
				termSOID[target] = soid
			} else {
				termVals[target] = terminalValues(p, obj)
			}
			if changed {
				if err := m.st.WriteObject(target, obj); err != nil {
					return err
				}
			}
		}
		refs = up
	}

	broken := terminalValues(p, nil)
	err = srcFile.Scan(func(oid pagefile.OID, payload []byte) error {
		src, err := schema.Decode(srcType, payload)
		if err != nil {
			return err
		}
		term, ok := src.Values[ref0].R, true
		for k := 0; k < nLevels-1 && ok; k++ {
			term, ok = next[k][term]
		}
		if p.Group != nil {
			soid := termSOID[term] // the nil OID when the chain is broken
			if prev, had := src.GetHidden(p.Group.ID, catalog.HiddenSPrimeIdx); had && prev.R == soid {
				return nil
			}
			src.SetHidden(p.Group.ID, catalog.HiddenSPrimeIdx, schema.RefValue(soid))
			return m.st.WriteObject(oid, src)
		}
		vals, ok := termVals[term]
		if !ok {
			if p.Collapsed {
				return fmt.Errorf("core: collapsed path %s requires non-null references", p.Spec)
			}
			vals = broken
		}
		if m.setSourceHidden(oid, src, p, vals) {
			return m.st.WriteObject(oid, src)
		}
		return nil
	})
	return err
}

// setReferrers gives target, which carries no pair for l yet, a structure
// listing the sorted referrers: inline up to the inlining threshold, else a
// link object placed on target's page.
func (m *Manager) setReferrers(l *catalog.Link, targetOID pagefile.OID, target *schema.Object, referrers []pagefile.OID) error {
	if len(referrers) <= m.inlineMax {
		target.SetLink(schema.LinkPair{LinkID: l.ID, Mode: schema.LinkModeInline, Inline: referrers})
		return nil
	}
	store, err := m.linkStore(l)
	if err != nil {
		return err
	}
	lobj := &links.Object{Refs: make([]links.Ref, len(referrers))}
	for i, oid := range referrers {
		lobj.Refs[i] = links.Ref{OID: oid}
	}
	loid, err := store.Create(lobj, targetOID.Page)
	if err != nil {
		return err
	}
	target.SetLink(schema.LinkPair{LinkID: l.ID, Mode: schema.LinkModeObject, LinkOID: loid})
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
	data, err := m.readSPrime(g, ref.R, tr)
	if err != nil {
		return schema.Value{}, err
	}
	var sobj schema.View
	if err := sobj.Reset(g.SPrimeType(), data); err != nil {
		return schema.Value{}, err
	}
	return sobj.Field(int(fieldIdx)), nil
}
