package core

import (
	"fmt"
	"sort"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/links"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// addReferrer registers referrer in target's structure for link l, creating
// the link pair (inline, §4.3.1) or link object as needed. It mutates target
// and reports whether target itself changed (the caller writes it back).
// Adding an already present referrer is a no-op.
func (m *Manager) addReferrer(l *catalog.Link, targetOID pagefile.OID, target *schema.Object, referrer pagefile.OID) (bool, error) {
	lp := target.FindLink(l.ID)
	if lp == nil {
		if m.inlineMax > 0 {
			target.SetLink(schema.LinkPair{
				LinkID: l.ID,
				Mode:   schema.LinkModeInline,
				Inline: []pagefile.OID{referrer},
			})
			return true, nil
		}
		store, err := m.linkStore(l)
		if err != nil {
			return false, err
		}
		lobj := &links.Object{}
		lobj.Add(links.Ref{OID: referrer})
		loid, err := store.Create(lobj, targetOID.Page)
		if err != nil {
			return false, err
		}
		target.SetLink(schema.LinkPair{LinkID: l.ID, Mode: schema.LinkModeObject, LinkOID: loid})
		return true, nil
	}
	switch lp.Mode {
	case schema.LinkModeInline:
		i := sort.Search(len(lp.Inline), func(i int) bool { return !lp.Inline[i].Less(referrer) })
		if i < len(lp.Inline) && lp.Inline[i] == referrer {
			return false, nil
		}
		inline := append(append(append([]pagefile.OID(nil), lp.Inline[:i]...), referrer), lp.Inline[i:]...)
		if len(inline) <= m.inlineMax {
			target.SetLink(schema.LinkPair{LinkID: l.ID, Mode: schema.LinkModeInline, Inline: inline})
			return true, nil
		}
		// The inline list outgrew the threshold: materialize a link object.
		store, err := m.linkStore(l)
		if err != nil {
			return false, err
		}
		lobj := &links.Object{}
		for _, oid := range inline {
			lobj.Add(links.Ref{OID: oid})
		}
		loid, err := store.Create(lobj, targetOID.Page)
		if err != nil {
			return false, err
		}
		target.SetLink(schema.LinkPair{LinkID: l.ID, Mode: schema.LinkModeObject, LinkOID: loid})
		return true, nil
	case schema.LinkModeObject:
		store, err := m.linkStore(l)
		if err != nil {
			return false, err
		}
		if _, err := store.AddRef(lp.LinkOID, links.Ref{OID: referrer}); err != nil {
			return false, err
		}
		return false, nil
	default:
		return false, fmt.Errorf("core: link pair %d has unknown mode %d", l.ID, lp.Mode)
	}
}

// removeReferrer removes referrer from target's structure for link l. It
// reports whether target changed and whether the structure became empty
// (target left the path, so the ripple continues one level up, §4.1.2).
// Removal is idempotent: if the pair or the referrer is already gone —
// because another path sharing this link removed it first — the call reports
// empty=true / empty=false respectively without error.
func (m *Manager) removeReferrer(l *catalog.Link, target *schema.Object, referrer pagefile.OID) (changed, empty bool, err error) {
	lp := target.FindLink(l.ID)
	if lp == nil {
		return false, true, nil
	}
	switch lp.Mode {
	case schema.LinkModeInline:
		i := sort.Search(len(lp.Inline), func(i int) bool { return !lp.Inline[i].Less(referrer) })
		if i >= len(lp.Inline) || lp.Inline[i] != referrer {
			return false, false, nil
		}
		inline := append(append([]pagefile.OID(nil), lp.Inline[:i]...), lp.Inline[i+1:]...)
		if len(inline) == 0 {
			target.RemoveLink(l.ID)
			return true, true, nil
		}
		target.SetLink(schema.LinkPair{LinkID: l.ID, Mode: schema.LinkModeInline, Inline: inline})
		return true, false, nil
	case schema.LinkModeObject:
		store, err := m.linkStore(l)
		if err != nil {
			return false, false, err
		}
		lobj, err := store.Read(lp.LinkOID)
		if err != nil {
			return false, false, err
		}
		if !lobj.Contains(referrer) {
			return false, false, nil
		}
		gone, err := store.RemoveRef(lp.LinkOID, referrer)
		if err != nil {
			return false, false, err
		}
		if gone {
			target.RemoveLink(l.ID)
			return true, true, nil
		}
		return false, false, nil
	default:
		return false, false, fmt.Errorf("core: link pair %d has unknown mode %d", l.ID, lp.Mode)
	}
}

// referrersOf returns the referrer OIDs stored in obj's structure for l, in
// sorted (clustered) order.
func (m *Manager) referrersOf(obj *schema.Object, l *catalog.Link) ([]pagefile.OID, error) {
	lp := obj.FindLink(l.ID)
	if lp == nil {
		return nil, nil
	}
	switch lp.Mode {
	case schema.LinkModeInline:
		return append([]pagefile.OID(nil), lp.Inline...), nil
	case schema.LinkModeObject:
		store, err := m.linkStore(l)
		if err != nil {
			return nil, err
		}
		lobj, err := store.Read(lp.LinkOID)
		if err != nil {
			return nil, err
		}
		return lobj.OIDs(), nil
	default:
		return nil, fmt.Errorf("core: link pair %d has unknown mode %d", l.ID, lp.Mode)
	}
}

// ensureChain registers source object src on path p: at every level of the
// inverted path the lower object is recorded as a referrer of the upper one
// (idempotently, since links are shared between paths), and src's hidden
// replicated values are installed. The caller writes src afterwards.
func (m *Manager) ensureChain(p *catalog.Path, srcOID pagefile.OID, src *schema.Object) error {
	if p.Collapsed {
		return m.ensureCollapsed(p, srcOID, src)
	}
	chain, err := m.walkChain(p, src)
	if err != nil {
		return err
	}
	nLinks := len(p.Links)
	referrer := srcOID
	for pos := 0; pos < nLinks && pos < len(chain); pos++ {
		target := chain[pos]
		changed, err := m.addReferrer(p.Links[pos], target.oid, target.obj, referrer)
		if err != nil {
			return err
		}
		if changed {
			if err := m.st.WriteObject(target.oid, target.obj); err != nil {
				return err
			}
		}
		referrer = target.oid
	}
	if p.Strategy == catalog.Separate {
		return m.ensureSeparateTerminal(p, srcOID, src, chain)
	}
	var termObj *schema.Object
	if t := terminalOf(p, chain); t != nil {
		termObj = t.obj
	}
	m.setSourceHidden(srcOID, src, p, terminalValues(p, termObj))
	return nil
}

// removeChain unregisters src from path p, rippling link-object deletions up
// the inverted path as structures empty (§4.1.1 delete E, §4.1.2).
func (m *Manager) removeChain(p *catalog.Path, srcOID pagefile.OID, src *schema.Object) error {
	if p.Collapsed {
		return m.removeCollapsed(p, srcOID, src)
	}
	chain, err := m.walkChain(p, src)
	if err != nil {
		return err
	}
	nLinks := len(p.Links)
	referrer := srcOID
	for pos := 0; pos < nLinks && pos < len(chain); pos++ {
		target := chain[pos]
		changed, empty, err := m.removeReferrer(p.Links[pos], target.obj, referrer)
		if err != nil {
			return err
		}
		if changed {
			if err := m.st.WriteObject(target.oid, target.obj); err != nil {
				return err
			}
		}
		if !empty {
			break
		}
		referrer = target.oid
	}
	if p.Strategy == catalog.Separate {
		return m.releaseSeparateTerminal(p, srcOID, src, chain)
	}
	m.dropHiddenNotifying(p, srcOID, src)
	return nil
}

// dropHiddenNotifying removes src's hidden values for p, notifying the
// listener (old value -> zero) so indexes on the replicated path stay exact.
// It reports whether src had any.
func (m *Manager) dropHiddenNotifying(p *catalog.Path, srcOID pagefile.OID, src *schema.Object) bool {
	for _, f := range p.Fields {
		if old, had := src.GetHidden(p.ID, f.Idx); had {
			m.notify(srcOID, p, f, old, schema.Zero(f.Kind))
		}
	}
	return src.DropHiddenPath(p.ID)
}

// propagateInPlace pushes new terminal values down the inverted path: from
// holder (an object carrying a pair for p.Links[level]) through its
// referrers, recursively, until the source objects' hidden values are
// updated.
func (m *Manager) propagateInPlace(p *catalog.Path, level int, holder *schema.Object, vals map[uint8]schema.Value) error {
	refs, err := m.referrersOf(holder, p.Links[level])
	if err != nil {
		return err
	}
	if level == 0 {
		return m.refreshSources(p, refs, vals)
	}
	for _, r := range refs {
		mid, err := m.st.ReadObject(r, p.Types[level])
		if err != nil {
			return err
		}
		if err := m.propagateInPlace(p, level-1, mid, vals); err != nil {
			return err
		}
	}
	return nil
}

// refreshSources installs vals as path p's hidden values in the source
// objects srcs. A source whose values all keep their kind and encoded width
// is patched in its page: one write pin, no decode, no encode. Any other — a
// value of another width, or one not installed yet — is decoded, updated and
// re-encoded. Either way the listener hears of each change, after the pin,
// and the page ends up byte for byte as the re-encoding would leave it.
func (m *Manager) refreshSources(p *catalog.Path, srcs []pagefile.OID, vals map[uint8]schema.Value) error {
	watched := make([]bool, len(p.Fields))
	for i, f := range p.Fields {
		watched[i] = m.listener != nil && m.listener.Watches(p, f)
	}
	var (
		view    schema.View
		changed = make([]bool, len(p.Fields))
		olds    = make([]schema.Value, len(p.Fields))
		done    bool // the source is up to date: patched, or nothing changed
	)
	patch := func(payload []byte) (bool, error) {
		done = false
		if err := view.Reset(p.Types[0], payload); err != nil {
			return false, err
		}
		dirty := false
		for i, f := range p.Fields {
			eq, ok := view.HiddenEqual(p.ID, f.Idx, vals[f.Idx])
			if !ok {
				return false, nil // not installed yet, or of another kind
			}
			changed[i] = !eq
			dirty = dirty || !eq
			if !eq && watched[i] {
				olds[i], _ = view.GetHidden(p.ID, f.Idx)
			}
		}
		if !dirty {
			done = true
			return false, nil
		}
		done = view.PatchHidden(p.ID, vals)
		return done, nil
	}
	for _, r := range srcs {
		if err := m.st.PatchObject(r, patch); err != nil {
			return err
		}
		if !done {
			srcObj, err := m.st.ReadObject(r, p.Types[0])
			if err != nil {
				return err
			}
			if m.setSourceHidden(r, srcObj, p, vals) {
				if err := m.st.WriteObject(r, srcObj); err != nil {
					return err
				}
			}
			continue
		}
		for i, f := range p.Fields {
			if changed[i] && watched[i] {
				m.listener.HiddenChanged(r, p, f, olds[i], vals[f.Idx])
			}
		}
	}
	return nil
}

// --- collapsed inverted paths (§4.3.3) ---
//
// A collapsed 2-level path keeps a single tagged link object on the terminal
// object, mapping source OIDs (tagged with the intermediate they route
// through) directly. Intermediate objects carry a marker pair (an empty
// inline pair) so reference-attribute updates on them can be detected.
// Collapsed paths require non-null references along the chain.

func (m *Manager) ensureCollapsed(p *catalog.Path, srcOID pagefile.OID, src *schema.Object) error {
	chain, err := m.walkChain(p, src)
	if err != nil {
		return err
	}
	if len(chain) < len(p.Spec.Refs) {
		return fmt.Errorf("core: collapsed path %s requires non-null references", p.Spec)
	}
	d, t := chain[0], chain[1]
	cl := p.CollapsedLink
	store, err := m.linkStore(cl)
	if err != nil {
		return err
	}
	lp := t.obj.FindLink(cl.ID)
	if lp == nil {
		lobj := &links.Object{Tagged: true}
		lobj.Add(links.Ref{OID: srcOID, Tag: d.oid})
		loid, err := store.Create(lobj, t.oid.Page)
		if err != nil {
			return err
		}
		t.obj.SetLink(schema.LinkPair{LinkID: cl.ID, Mode: schema.LinkModeObject, LinkOID: loid})
		if err := m.st.WriteObject(t.oid, t.obj); err != nil {
			return err
		}
	} else {
		if _, err := store.AddRef(lp.LinkOID, links.Ref{OID: srcOID, Tag: d.oid}); err != nil {
			return err
		}
	}
	// Marker on the intermediate so updates to its ref attribute are seen.
	if d.obj.FindLink(cl.ID) == nil {
		d.obj.SetLink(schema.LinkPair{LinkID: cl.ID, Mode: schema.LinkModeInline})
		if err := m.st.WriteObject(d.oid, d.obj); err != nil {
			return err
		}
	}
	m.setSourceHidden(srcOID, src, p, terminalValues(p, t.obj))
	return nil
}

func (m *Manager) removeCollapsed(p *catalog.Path, srcOID pagefile.OID, src *schema.Object) error {
	chain, err := m.walkChain(p, src)
	if err != nil {
		return err
	}
	if len(chain) < len(p.Spec.Refs) {
		return fmt.Errorf("core: collapsed path %s requires non-null references", p.Spec)
	}
	d, t := chain[0], chain[1]
	cl := p.CollapsedLink
	lp := t.obj.FindLink(cl.ID)
	if lp == nil {
		src.DropHiddenPath(p.ID)
		return nil
	}
	store, err := m.linkStore(cl)
	if err != nil {
		return err
	}
	lobj, err := store.Read(lp.LinkOID)
	if err != nil {
		return err
	}
	lobj.Remove(srcOID)
	dStillRouting := len(lobj.RefsWithTag(d.oid)) > 0
	if lobj.Len() == 0 {
		if err := store.Delete(lp.LinkOID); err != nil {
			return err
		}
		t.obj.RemoveLink(cl.ID)
		if err := m.st.WriteObject(t.oid, t.obj); err != nil {
			return err
		}
	} else {
		if err := store.Write(lp.LinkOID, lobj); err != nil {
			return err
		}
	}
	if !dStillRouting && d.obj.FindLink(cl.ID) != nil {
		d.obj.RemoveLink(cl.ID)
		if err := m.st.WriteObject(d.oid, d.obj); err != nil {
			return err
		}
	}
	m.dropHiddenNotifying(p, srcOID, src)
	return nil
}

// propagateCollapsed pushes terminal values of a collapsed path directly to
// the source objects listed in the terminal's tagged link object.
func (m *Manager) propagateCollapsed(p *catalog.Path, terminal *schema.Object, vals map[uint8]schema.Value) error {
	lp := terminal.FindLink(p.CollapsedLink.ID)
	if lp == nil {
		return nil
	}
	store, err := m.linkStore(p.CollapsedLink)
	if err != nil {
		return err
	}
	lobj, err := store.Read(lp.LinkOID)
	if err != nil {
		return err
	}
	return m.refreshSources(p, lobj.OIDs(), vals)
}
