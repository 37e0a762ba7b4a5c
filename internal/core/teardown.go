package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// TeardownPath removes a building path's replicated state so its catalog
// entry can be dropped: hidden values leave the source objects, the pairs of
// every link no other registered path uses leave the objects carrying them,
// and — when p is the last path of its S′ group — so do the group's S′
// entries and hidden S′ references.
func (m *Manager) TeardownPath(p *catalog.Path) error { return m.strip(p) }

// strip removes the replicated state of paths, except what a registered path
// outside them shares: their queued propagations, their hidden values, the
// pairs of their links and the S′ entries and hidden S′ references of their
// groups.
//
// It scans sets by type rather than walking reference chains, so it clears
// whatever part of the state exists, however it got there: a build an error
// or a crash cut short, a path Unreplicate retired, pairs left on objects a
// statement moved out of the chain while the path was building, or state
// Repair is about to re-derive. It never reads a link or S′ object, so a
// damaged page of their files cannot stop it: those objects are not deleted
// one by one, and a dead link's file and a dead group's S′ file are
// abandoned whole (page stores do not delete files).
func (m *Manager) strip(paths ...*catalog.Path) error {
	m.purgePending(paths)

	pairs := map[string][]uint8{}          // type -> links whose pairs its objects lose
	seps := map[string][]uint8{}           // type -> groups whose S′ entries its objects lose
	hidden := map[string][]*catalog.Path{} // source set -> paths whose hidden values go
	add := func(ids map[string][]uint8, typ string, id uint8) {
		if !slices.Contains(ids[typ], id) {
			ids[typ] = append(ids[typ], id)
		}
	}
	for _, p := range paths {
		links := p.Links
		if p.CollapsedLink != nil {
			links = append(slices.Clone(links), p.CollapsedLink)
		}
		for _, l := range links {
			if !m.cat.SoleLinkUsers(l, paths...) {
				continue
			}
			add(pairs, l.ToType, l.ID)
			if l == p.CollapsedLink {
				// The collapsed marker pairs sit on the intermediates.
				add(pairs, p.Types[1].Name, l.ID)
			}
		}
		switch {
		case p.Strategy == catalog.InPlace:
			hidden[p.Spec.Source] = append(hidden[p.Spec.Source], p)
		case m.cat.SoleGroupUsers(p.Group, paths...):
			add(seps, p.TerminalType().Name, p.Group.ID)
			hidden[p.Spec.Source] = append(hidden[p.Spec.Source], p)
		}
	}

	sets := m.cat.Sets()
	slices.SortFunc(sets, func(a, b *catalog.Set) int { return cmp.Compare(a.Name, b.Name) })
	for _, set := range sets {
		typ, err := m.cat.SetType(set.Name)
		if err != nil {
			return err
		}
		ids, groups, sources := pairs[typ.Name], seps[typ.Name], hidden[set.Name]
		if len(ids) == 0 && len(groups) == 0 && len(sources) == 0 {
			continue
		}
		file, err := m.st.SetFile(set.Name)
		if err != nil {
			return err
		}
		err = file.Scan(func(oid pagefile.OID, payload []byte) error {
			obj, err := schema.Decode(typ, payload)
			if err != nil {
				return err
			}
			changed := false
			for _, p := range sources {
				if p.Strategy == catalog.InPlace {
					changed = m.dropHiddenNotifying(p, oid, obj) || changed
				} else {
					changed = obj.DropHiddenPath(p.Group.ID) || changed
				}
			}
			for _, id := range ids {
				changed = obj.RemoveLink(id) || changed
			}
			for _, id := range groups {
				changed = obj.RemoveSep(id) || changed
			}
			if !changed {
				return nil
			}
			return m.st.WriteObject(oid, obj)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// purgePending drops the queued deferred propagations of paths.
func (m *Manager) purgePending(paths []*catalog.Path) {
	s := m.pend
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return
	}
	kept := s.order[:0]
	for _, k := range s.order {
		if slices.ContainsFunc(paths, func(p *catalog.Path) bool { return p.ID == k.path }) {
			delete(s.pending, k)
			continue
		}
		kept = append(kept, k)
	}
	s.order = kept
}

// ErrPathInUse is returned when a path cannot be torn down because an index
// depends on its replicated values.
var ErrPathInUse = fmt.Errorf("core: path has dependent indexes")
