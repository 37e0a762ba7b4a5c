package core

import (
	"fmt"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/links"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// OnInsert registers a newly inserted source object on every replication
// path emanating from its set and writes the object back with its hidden
// values installed (§4.1.1 insert E).
func (m *Manager) OnInsert(set *catalog.Set, oid pagefile.OID, obj *schema.Object) error {
	paths := m.cat.PathsFromSet(set.Name)
	if len(paths) == 0 {
		return nil
	}
	for _, p := range paths {
		if err := m.ensureChain(p, oid, obj); err != nil {
			return err
		}
	}
	return m.st.WriteObject(oid, obj)
}

// OnDelete unregisters a source object about to be deleted (§4.1.1 delete
// E). It refuses to delete objects that other objects still reference
// through a replication path, matching the paper's assumption that "D can be
// deleted only when it is not referenced".
func (m *Manager) OnDelete(set *catalog.Set, oid pagefile.OID, obj *schema.Object) error {
	if len(obj.Links) > 0 {
		return fmt.Errorf("%w: %v carries link pairs %v", ErrStillReferenced, oid, obj.Links)
	}
	for _, se := range obj.Seps {
		if se.RefCount > 0 {
			return fmt.Errorf("%w: %v carries S′ refcount %d", ErrStillReferenced, oid, se.RefCount)
		}
	}
	for _, p := range m.cat.PathsFromSet(set.Name) {
		if err := m.removeChain(p, oid, obj); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate propagates the effects of an update to the object at oid. oldObj
// is the pre-update state, newObj the post-update state (already stored by
// the engine). The manager handles three roles the object may play:
//
//   - terminal of paths (its replicated data fields changed): propagate
//     through the inverted path (in-place) or refresh the S′ object
//     (separate);
//   - intermediate of paths (a reference attribute changed): move it between
//     link structures and re-resolve the affected source objects (§4.1.2);
//   - source of paths (its first reference attribute changed): unregister
//     from the old chain and register on the new one.
//
// newObj may be further modified (hidden values); the manager writes it back.
func (m *Manager) OnUpdate(set *catalog.Set, oid pagefile.OID, oldObj, newObj *schema.Object) error {
	typ := newObj.Type
	var changedScalars []int
	type refChange struct {
		idx  int
		old  pagefile.OID
		new  pagefile.OID
		name string
	}
	var changedRefs []refChange
	for i, f := range typ.Fields {
		if oldObj.Values[i].Equal(newObj.Values[i]) {
			continue
		}
		if f.Kind == schema.KindRef {
			changedRefs = append(changedRefs, refChange{idx: i, old: oldObj.Values[i].R, new: newObj.Values[i].R, name: f.Name})
		} else {
			changedScalars = append(changedScalars, i)
		}
	}
	if len(changedScalars) == 0 && len(changedRefs) == 0 {
		return nil
	}

	// Role 1: terminal data-field updates, detected through the object's own
	// link pairs and S′ entries (§4.1.3: "the link ID(s) stored in O identify
	// ... which updates to O need to be propagated"). A changed reference
	// attribute is included here too: a path may replicate the reference
	// itself (§3.3.3 path collapsing), making it a replicated "data" field.
	changedForData := append([]int(nil), changedScalars...)
	for _, rc := range changedRefs {
		changedForData = append(changedForData, rc.idx)
	}
	if len(changedForData) > 0 {
		if err := m.propagateDataChange(oid, newObj, changedForData); err != nil {
			return err
		}
	}

	// Role 2: intermediate reference-attribute updates.
	for _, rc := range changedRefs {
		if err := m.intermediateRefChange(oid, newObj, rc.name, rc.old, rc.new); err != nil {
			return err
		}
	}

	// Role 3: source reference-attribute updates (§4.1.1 update E.dept).
	// Separate paths sharing one S′ group also share registration state
	// (one hidden reference, one refcount contribution), so each group is
	// re-registered once, not once per member path.
	srcWritten := false
	seenGroups := map[uint8]bool{}
	for _, p := range m.cat.PathsFromSet(set.Name) {
		for _, rc := range changedRefs {
			if p.Spec.Refs[0] != rc.name {
				continue
			}
			if p.Strategy == catalog.Separate {
				if seenGroups[p.Group.ID] {
					continue
				}
				seenGroups[p.Group.ID] = true
			}
			if err := m.removeChain(p, oid, oldObj); err != nil {
				return err
			}
			// Carry the cleared registration state over to newObj so that
			// ensureChain re-registers from scratch (otherwise a stale
			// hidden S′ reference on newObj would defeat the refcount
			// bookkeeping when the move stays under the same terminal).
			newObj.DropHiddenPath(p.ID)
			if p.Strategy == catalog.Separate {
				newObj.SetHidden(p.Group.ID, catalog.HiddenSPrimeIdx, schema.RefValue(pagefile.NilOID))
			}
			if err := m.ensureChain(p, oid, newObj); err != nil {
				return err
			}
			srcWritten = true
		}
	}
	if srcWritten {
		return m.st.WriteObject(oid, newObj)
	}
	return nil
}

// propagateDataChange handles changed scalar fields of the object at oid in
// its role as a path terminal. Deferred paths enqueue instead of walking the
// inverted path.
func (m *Manager) propagateDataChange(oid pagefile.OID, obj *schema.Object, changed []int) error {
	changedSet := make(map[int]bool, len(changed))
	for _, i := range changed {
		changedSet[i] = true
	}
	for _, lp := range obj.Links {
		l, ok := m.cat.LinkByID(lp.LinkID)
		if !ok {
			return fmt.Errorf("core: object carries unknown link ID %d", lp.LinkID)
		}
		for _, p := range m.cat.PathsWithLink(l.ID) {
			if p.Strategy != catalog.InPlace {
				continue
			}
			replicatesChanged := false
			for _, f := range p.Fields {
				if changedSet[f.Terminal] {
					replicatesChanged = true
					break
				}
			}
			if !replicatesChanged {
				continue
			}
			if p.Collapsed {
				// Only the terminal carries an object-mode pair; the marker
				// pair on intermediates is inline-mode.
				if p.CollapsedLink.ID == l.ID && lp.Mode == schema.LinkModeObject {
					if p.Deferred {
						m.enqueueDeferred(p, oid)
						continue
					}
					if err := m.propagateCollapsed(p, obj, terminalValues(p, obj)); err != nil {
						return err
					}
				}
				continue
			}
			// Propagate only when obj is the path's terminal, i.e. the pair
			// is for the last link.
			if l.Level != len(p.Links)-1 {
				continue
			}
			if p.Deferred {
				m.enqueueDeferred(p, oid)
				continue
			}
			if err := m.propagateInPlace(p, l.Level, obj, terminalValues(p, obj)); err != nil {
				return err
			}
		}
	}
	for _, se := range obj.Seps {
		g, ok := m.cat.GroupByID(se.GroupID)
		if !ok {
			return fmt.Errorf("core: object carries unknown group ID %d", se.GroupID)
		}
		if len(m.cat.PathsWithGroup(g.ID)) == 0 {
			continue // a building group: its teardown clears the entry
		}
		touches := false
		for _, f := range g.Fields {
			if changedSet[f.Terminal] {
				touches = true
				break
			}
		}
		if touches {
			if err := m.refreshSPrime(g, se.SOID, obj); err != nil {
				return err
			}
		}
	}
	return nil
}

// intermediateRefChange handles a change of reference attribute fieldName on
// the object at xOID in its role as a path intermediate. The object's link
// pairs identify the paths it lies on and its position in them (§4.1.3: "if
// D.org is changed ... we need to know that D appears in the replication
// path ... and also that D lies at the end of the first link").
func (m *Manager) intermediateRefChange(xOID pagefile.OID, x *schema.Object, fieldName string, oldT, newT pagefile.OID) error {
	// Snapshot the pairs: moves may mutate x's links (collapsed markers).
	pairs := append([]schema.LinkPair(nil), x.Links...)
	handled := make(map[*catalog.Path]bool)
	handledGroups := make(map[uint8]bool) // separate paths sharing a group move once
	for _, lp := range pairs {
		l, ok := m.cat.LinkByID(lp.LinkID)
		if !ok {
			return fmt.Errorf("core: object carries unknown link ID %d", lp.LinkID)
		}
		for _, p := range m.cat.PathsWithLink(l.ID) {
			if handled[p] {
				continue
			}
			if p.Collapsed {
				// x is the intermediate iff it carries the marker pair.
				if p.CollapsedLink.ID == l.ID && lp.Mode == schema.LinkModeInline && p.Spec.Refs[1] == fieldName {
					handled[p] = true
					if err := m.moveCollapsedIntermediate(p, xOID, oldT, newT); err != nil {
						return err
					}
				}
				continue
			}
			j := l.Level + 1 // x's position in p
			if j >= len(p.Spec.Refs) || p.Spec.Refs[j] != fieldName {
				continue
			}
			handled[p] = true
			if p.Strategy == catalog.Separate {
				if handledGroups[p.Group.ID] {
					continue
				}
				handledGroups[p.Group.ID] = true
			}
			if err := m.intermediateRefMove(p, j, xOID, oldT, newT); err != nil {
				return err
			}
		}
	}
	return nil
}

// intermediateRefMove relocates x (at position j of path p, holding ref
// p.Spec.Refs[j]) from the oldT subtree to the newT subtree: its entry moves
// between link structures (with ripple on both sides), and every source
// object reaching the terminal through x is re-resolved.
func (m *Manager) intermediateRefMove(p *catalog.Path, j int, xOID, oldT, newT pagefile.OID) error {
	// Collect the affected sources before touching any structure.
	xObj, err := m.st.ReadObject(xOID, p.Types[j])
	if err != nil {
		return err
	}
	sources, err := m.collectSources(p, j-1, xObj)
	if err != nil {
		return err
	}

	// Structure moves apply when the link inverting ref j is maintained:
	// always for in-place; for separate only when j is not the last ref.
	if j < len(p.Links) {
		// Old side: remove x from oldT's structure, rippling up the chain.
		oldChain, err := m.walkChainFrom(p, j+1, oldT)
		if err != nil {
			return err
		}
		referrer := xOID
		for k := 0; k < len(oldChain) && j+k < len(p.Links); k++ {
			ent := oldChain[k]
			changed, empty, err := m.removeReferrer(p.Links[j+k], ent.obj, referrer)
			if err != nil {
				return err
			}
			if changed {
				if err := m.st.WriteObject(ent.oid, ent.obj); err != nil {
					return err
				}
			}
			if !empty {
				break
			}
			referrer = ent.oid
		}
	}
	var newChain []chainEntry
	newChain, err = m.walkChainFrom(p, j+1, newT)
	if err != nil {
		return err
	}
	if j < len(p.Links) {
		referrer := xOID
		for k := 0; k < len(newChain) && j+k < len(p.Links); k++ {
			ent := newChain[k]
			changed, err := m.addReferrer(p.Links[j+k], ent.oid, ent.obj, referrer)
			if err != nil {
				return err
			}
			if changed {
				if err := m.st.WriteObject(ent.oid, ent.obj); err != nil {
					return err
				}
			}
			referrer = ent.oid
		}
	}

	// Re-resolve the affected sources against the new terminal.
	n := len(p.Spec.Refs)
	var newTerm *chainEntry
	if len(newChain) == n-j {
		newTerm = &newChain[len(newChain)-1]
	}
	switch p.Strategy {
	case catalog.InPlace:
		var termObj *schema.Object
		if newTerm != nil {
			termObj = newTerm.obj
		}
		vals := terminalValues(p, termObj)
		for _, s := range sources {
			srcObj, err := m.st.ReadObject(s, p.Types[0])
			if err != nil {
				return err
			}
			if m.setSourceHidden(s, srcObj, p, vals) {
				if err := m.st.WriteObject(s, srcObj); err != nil {
					return err
				}
			}
		}
	case catalog.Separate:
		if err := m.moveSeparateSources(p, sources, oldT, newTerm, j); err != nil {
			return err
		}
	}
	return nil
}

// moveSeparateSources retargets sources of a separate path from the S′
// object of the old terminal (reached from oldT at position j+1) to the S′
// object of newTerm, adjusting refcounts in bulk.
func (m *Manager) moveSeparateSources(p *catalog.Path, sources []pagefile.OID, oldT pagefile.OID, newTerm *chainEntry, j int) error {
	g := p.Group
	n := len(p.Spec.Refs)
	// Resolve the old terminal to release its refcount.
	oldChain, err := m.walkChainFrom(p, j+1, oldT)
	if err != nil {
		return err
	}
	if len(oldChain) == n-j {
		oldTermEnt := oldChain[len(oldChain)-1]
		// Re-read: the link ripple may have rewritten it.
		oldTermObj, err := m.st.ReadObject(oldTermEnt.oid, p.TerminalType())
		if err != nil {
			return err
		}
		if se := oldTermObj.FindSep(g.ID); se != nil {
			if uint32(len(sources)) >= se.RefCount {
				file, err := m.st.GroupFile(g)
				if err != nil {
					return err
				}
				if err := file.Delete(se.SOID); err != nil {
					return err
				}
				oldTermObj.RemoveSep(g.ID)
			} else {
				se.RefCount -= uint32(len(sources))
			}
			if err := m.st.WriteObject(oldTermEnt.oid, oldTermObj); err != nil {
				return err
			}
		}
	}
	// Register at the new terminal.
	newSOID := pagefile.NilOID
	if newTerm != nil {
		termObj, err := m.st.ReadObject(newTerm.oid, p.TerminalType())
		if err != nil {
			return err
		}
		se := termObj.FindSep(g.ID)
		if se == nil {
			file, err := m.st.GroupFile(g)
			if err != nil {
				return err
			}
			sObj, err := newSPrimeObject(g, termObj)
			if err != nil {
				return err
			}
			soid, err := file.InsertNear(sObj.Encode(), newTerm.oid.Page)
			if err != nil {
				return err
			}
			termObj.SetSep(schema.SepEntry{GroupID: g.ID, SOID: soid, RefCount: uint32(len(sources))})
			newSOID = soid
		} else {
			se.RefCount += uint32(len(sources))
			newSOID = se.SOID
		}
		if err := m.st.WriteObject(newTerm.oid, termObj); err != nil {
			return err
		}
	}
	for _, s := range sources {
		srcObj, err := m.st.ReadObject(s, p.Types[0])
		if err != nil {
			return err
		}
		srcObj.SetHidden(g.ID, catalog.HiddenSPrimeIdx, schema.RefValue(newSOID))
		if err := m.st.WriteObject(s, srcObj); err != nil {
			return err
		}
	}
	return nil
}

// moveCollapsedIntermediate handles a ref change on the intermediate of a
// collapsed 2-level path: the source entries tagged with x move from the old
// terminal's link object to the new terminal's, and the sources' hidden
// values are refreshed (§4.3.3, Figure 6).
func (m *Manager) moveCollapsedIntermediate(p *catalog.Path, xOID, oldT, newT pagefile.OID) error {
	if newT.IsNil() || oldT.IsNil() {
		return fmt.Errorf("core: collapsed path %s requires non-null references", p.Spec)
	}
	cl := p.CollapsedLink
	store, err := m.linkStore(cl)
	if err != nil {
		return err
	}
	term := p.TerminalType()
	oldObj, err := m.st.ReadObject(oldT, term)
	if err != nil {
		return err
	}
	var moved []pagefile.OID
	if lp := oldObj.FindLink(cl.ID); lp != nil {
		lobj, err := store.Read(lp.LinkOID)
		if err != nil {
			return err
		}
		for _, r := range lobj.RemoveByTag(xOID) {
			moved = append(moved, r.OID)
		}
		if lobj.Len() == 0 {
			if err := store.Delete(lp.LinkOID); err != nil {
				return err
			}
			oldObj.RemoveLink(cl.ID)
			if err := m.st.WriteObject(oldT, oldObj); err != nil {
				return err
			}
		} else if len(moved) > 0 {
			if err := store.Write(lp.LinkOID, lobj); err != nil {
				return err
			}
		}
	}
	if len(moved) == 0 {
		return nil
	}
	newObj, err := m.st.ReadObject(newT, term)
	if err != nil {
		return err
	}
	if lp := newObj.FindLink(cl.ID); lp != nil {
		for _, s := range moved {
			if _, err := store.AddRef(lp.LinkOID, links.Ref{OID: s, Tag: xOID}); err != nil {
				return err
			}
		}
	} else {
		lobj := &links.Object{Tagged: true}
		for _, s := range moved {
			lobj.Add(links.Ref{OID: s, Tag: xOID})
		}
		loid, err := store.Create(lobj, newT.Page)
		if err != nil {
			return err
		}
		newObj.SetLink(schema.LinkPair{LinkID: cl.ID, Mode: schema.LinkModeObject, LinkOID: loid})
		if err := m.st.WriteObject(newT, newObj); err != nil {
			return err
		}
	}
	vals := terminalValues(p, newObj)
	for _, s := range moved {
		srcObj, err := m.st.ReadObject(s, p.Types[0])
		if err != nil {
			return err
		}
		if m.setSourceHidden(s, srcObj, p, vals) {
			if err := m.st.WriteObject(s, srcObj); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectSources gathers the source OIDs reachable downward from holder (an
// object carrying a pair for p.Links[level]).
func (m *Manager) collectSources(p *catalog.Path, level int, holder *schema.Object) ([]pagefile.OID, error) {
	refs, err := m.referrersOf(holder, p.Links[level])
	if err != nil {
		return nil, err
	}
	if level == 0 {
		return refs, nil
	}
	var out []pagefile.OID
	for _, r := range refs {
		obj, err := m.st.ReadObject(r, p.Types[level])
		if err != nil {
			return nil, err
		}
		sub, err := m.collectSources(p, level-1, obj)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}
