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
//
// It scans sets by type rather than walking reference chains, so it clears
// whatever part of the state exists, however it got there: a build an error
// or a crash cut short, a path Unreplicate retired, or pairs left on objects
// a statement moved out of the chain while the path was building. Link and
// S′ objects are not deleted one by one: a dead link's file and a dead
// group's S′ file are abandoned whole (page stores do not delete files).
func (m *Manager) TeardownPath(p *catalog.Path) error {
	m.purgePending(p)

	// The link IDs whose pairs objects of each type may carry.
	strip := map[string][]uint8{}
	links := p.Links
	if p.CollapsedLink != nil {
		links = append(slices.Clone(links), p.CollapsedLink)
	}
	for _, l := range links {
		if !m.cat.SoleLinkUser(p, l) {
			continue
		}
		strip[l.ToType] = append(strip[l.ToType], l.ID)
		if l == p.CollapsedLink {
			// The collapsed marker pairs sit on the intermediates.
			strip[p.Types[1].Name] = append(strip[p.Types[1].Name], l.ID)
		}
	}
	var group uint8 // the dying S′ group, 0 for none
	if p.Group != nil && m.cat.SoleGroupUser(p) {
		group = p.Group.ID
	}

	sets := m.cat.Sets()
	slices.SortFunc(sets, func(a, b *catalog.Set) int { return cmp.Compare(a.Name, b.Name) })
	for _, set := range sets {
		typ, err := m.cat.SetType(set.Name)
		if err != nil {
			return err
		}
		ids := strip[typ.Name]
		source := set.Name == p.Spec.Source
		terminal := group != 0 && typ.Name == p.TerminalType().Name
		if len(ids) == 0 && !source && !terminal {
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
			if source {
				switch {
				case p.Strategy == catalog.InPlace:
					changed = m.dropHiddenNotifying(p, oid, obj)
				case group != 0:
					changed = obj.DropHiddenPath(group)
				}
			}
			for _, id := range ids {
				changed = obj.RemoveLink(id) || changed
			}
			if terminal {
				changed = obj.RemoveSep(group) || changed
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

// purgePending drops p's queued deferred propagations.
func (m *Manager) purgePending(p *catalog.Path) {
	s := m.pend
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return
	}
	kept := s.order[:0]
	for _, k := range s.order {
		if k.path == p.ID {
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
