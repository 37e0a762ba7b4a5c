package core

import (
	"errors"
	"sort"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/links"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Repair rebuilds every derived replication structure from the primary data:
// forward reference chains are re-walked and hidden values, link structures,
// collapsed link objects and S′ groups are rewritten to match. It is the
// recovery companion to Verify — a mid-operation failure (I/O error, crash)
// can leave the derived state stale, and Repair restores the invariant
// without replaying the failed operation.
//
// The repair is derivation, not patching: the forward references and terminal
// field values stored in the user's objects are authoritative, and every
// derived structure is recomputed from them. Repair therefore fixes any
// combination of stale hidden values, missing or spurious link referrers,
// wrong collapsed tags, dangling S′ references and wrong refcounts, no matter
// how the corruption arose.
//
// Repair does not fix the primary data itself: a torn page in a source set is
// surfaced as an error (see pagefile.ErrCorruptPage), not silently absorbed.

// RepairReport summarizes what a Repair pass changed.
type RepairReport struct {
	HiddenFixed    int     // source objects whose hidden replicated values were rewritten
	LinksFixed     int     // (link, target) referrer structures rewritten to the derived set
	CollapsedFixed int     // collapsed terminal link objects created, rewritten or dropped
	MarkersFixed   int     // collapsed intermediate marker pairs added or removed
	GroupsRebuilt  int     // separate groups whose S′ file was rebuilt from scratch
	SepSwept       int     // stale S′ entries removed from objects that are no longer terminals
	Remaining      []error // Verify findings still present after the repair pass
}

// Changed reports the total number of fixes applied.
func (r *RepairReport) Changed() int {
	return r.HiddenFixed + r.LinksFixed + r.CollapsedFixed + r.MarkersFixed + r.GroupsRebuilt + r.SepSwept
}

// Clean reports whether the post-repair verification found no violations.
func (r *RepairReport) Clean() bool { return len(r.Remaining) == 0 }

// repairState accumulates the expectations derived from forward walks in the
// scan phase, keyed the same way Verify keys its checks.
type repairState struct {
	// wantRefs[linkID][target] is the exact referrer set each link structure
	// must hold, unioned across every path sharing the link.
	wantRefs map[uint8]map[pagefile.OID]map[pagefile.OID]bool
	// wantTags[pathID][terminal][source] is the tag (routing intermediate)
	// each collapsed terminal's link object must list for each source.
	wantTags map[uint8]map[pagefile.OID]map[pagefile.OID]pagefile.OID
	// routing[pathID][intermediate] marks intermediates some source routes
	// through, which must carry the collapsed marker pair.
	routing map[uint8]map[pagefile.OID]bool
	// sepTerms[groupID][terminal] marks the terminals that must hold an S′
	// entry for the group.
	sepTerms map[uint8]map[pagefile.OID]bool
}

// Repair runs the full pass and reports what changed. The returned error is
// for infrastructure failures (I/O, undecodable primary data) that stop the
// pass; invariant violations that survive repair are listed in
// RepairReport.Remaining instead.
func (m *Manager) Repair() (*RepairReport, error) {
	rep := &RepairReport{}
	// Drain the deferred-propagation queue first so queued updates are not
	// re-reported as stale hidden values. Failures are deliberately ignored:
	// propagation runs over the possibly-corrupt inverted path, and the scan
	// phase below rewrites every hidden value from forward walks anyway.
	_ = m.FlushAllPending()

	st := &repairState{
		wantRefs: map[uint8]map[pagefile.OID]map[pagefile.OID]bool{},
		wantTags: map[uint8]map[pagefile.OID]map[pagefile.OID]pagefile.OID{},
		routing:  map[uint8]map[pagefile.OID]bool{},
		sepTerms: map[uint8]map[pagefile.OID]bool{},
	}

	// Phase 1: walk the forward chains of every path, fixing source hidden
	// values in place and accumulating the expected contents of every derived
	// structure.
	for _, p := range m.cat.Paths() {
		if err := m.repairScanPath(p, st, rep); err != nil {
			return rep, err
		}
	}
	// Phase 2: make every non-collapsed link structure exactly equal its
	// derived referrer set (adds missing entries, drops spurious ones, and
	// replaces structures whose link objects are unreadable).
	if err := m.repairLinks(st, rep); err != nil {
		return rep, err
	}
	// Phase 3: collapsed paths — exact tagged link objects on terminals,
	// marker pairs on routing intermediates.
	for _, p := range m.cat.Paths() {
		if !p.Collapsed {
			continue
		}
		if err := m.repairCollapsed(p, st, rep); err != nil {
			return rep, err
		}
	}
	// Phase 4: separate groups — sweep stale S′ entries, then rebuild any
	// group that still fails verification from scratch.
	if err := m.repairGroups(st, rep); err != nil {
		return rep, err
	}
	// Phase 5: the post-repair verdict.
	rep.Remaining = m.Verify()
	return rep, nil
}

// repairScanPath re-walks every source of p, repairing hidden values for
// in-place and collapsed paths and recording expectations for the structural
// phases.
func (m *Manager) repairScanPath(p *catalog.Path, st *repairState, rep *RepairReport) error {
	srcFile, err := m.st.SetFile(p.Spec.Source)
	if err != nil {
		return err
	}
	srcType := p.Types[0]
	return srcFile.Scan(func(oid pagefile.OID, payload []byte) error {
		src, err := schema.Decode(srcType, payload)
		if err != nil {
			return err
		}
		chain, err := m.walkChain(p, src)
		if err != nil {
			return err
		}
		term := terminalOf(p, chain)
		if p.Collapsed {
			if term != nil && len(chain) >= 2 {
				if st.wantTags[p.ID] == nil {
					st.wantTags[p.ID] = map[pagefile.OID]map[pagefile.OID]pagefile.OID{}
				}
				if st.wantTags[p.ID][term.oid] == nil {
					st.wantTags[p.ID][term.oid] = map[pagefile.OID]pagefile.OID{}
				}
				st.wantTags[p.ID][term.oid][oid] = chain[0].oid
				if st.routing[p.ID] == nil {
					st.routing[p.ID] = map[pagefile.OID]bool{}
				}
				st.routing[p.ID][chain[0].oid] = true
			}
		} else {
			referrer := oid
			for pos := 0; pos < len(p.Links) && pos < len(chain); pos++ {
				l := p.Links[pos]
				if st.wantRefs[l.ID] == nil {
					st.wantRefs[l.ID] = map[pagefile.OID]map[pagefile.OID]bool{}
				}
				target := chain[pos].oid
				if st.wantRefs[l.ID][target] == nil {
					st.wantRefs[l.ID][target] = map[pagefile.OID]bool{}
				}
				st.wantRefs[l.ID][target][referrer] = true
				referrer = target
			}
		}
		switch p.Strategy {
		case catalog.InPlace:
			var termObj *schema.Object
			if term != nil {
				termObj = term.obj
			}
			if m.setSourceHidden(oid, src, p, terminalValues(p, termObj)) {
				if err := m.st.WriteObject(oid, src); err != nil {
					return err
				}
				rep.HiddenFixed++
			}
		case catalog.Separate:
			// Hidden S′ references are installed by the group phase; here we
			// only record which terminals the group must cover.
			g := p.Group
			if term != nil {
				if st.sepTerms[g.ID] == nil {
					st.sepTerms[g.ID] = map[pagefile.OID]bool{}
				}
				st.sepTerms[g.ID][term.oid] = true
			}
		}
		return nil
	})
}

// setsOfType returns the catalog sets holding objects of the named type, in
// name order for deterministic repair.
func (m *Manager) setsOfType(typeName string) []*catalog.Set {
	var out []*catalog.Set
	for _, s := range m.cat.Sets() {
		if s.TypeName == typeName {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// repairLinks scans the target sets of every shared (non-collapsed) link and
// rewrites each object's referrer structure to exactly the derived set.
func (m *Manager) repairLinks(st *repairState, rep *RepairReport) error {
	collapsed := map[uint8]bool{}
	for _, p := range m.cat.Paths() {
		if p.CollapsedLink != nil {
			collapsed[p.CollapsedLink.ID] = true
		}
	}
	ls := m.cat.Links()
	sort.Slice(ls, func(i, j int) bool { return ls[i].ID < ls[j].ID })
	for _, l := range ls {
		if collapsed[l.ID] {
			continue
		}
		tType, ok := m.cat.TypeByName(l.ToType)
		if !ok {
			continue
		}
		for _, set := range m.setsOfType(l.ToType) {
			file, err := m.st.SetFile(set.Name)
			if err != nil {
				return err
			}
			err = file.Scan(func(oid pagefile.OID, payload []byte) error {
				obj, err := schema.Decode(tType, payload)
				if err != nil {
					return err
				}
				want := sortedOIDs(st.wantRefs[l.ID][oid])
				got, gotErr := m.referrersOf(obj, l)
				if gotErr == nil && oidsEqual(got, want) {
					return nil
				}
				// Mismatch — or the existing structure is unreadable (its
				// link object dangles); either way, rebuild it exactly.
				if err := m.setReferrersExact(l, oid, obj, want); err != nil {
					return err
				}
				if err := m.st.WriteObject(oid, obj); err != nil {
					return err
				}
				rep.LinksFixed++
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// setReferrersExact replaces target's structure for link l with exactly the
// given sorted referrer set, choosing inline or link-object representation by
// the manager's inlining threshold. The caller writes target back.
func (m *Manager) setReferrersExact(l *catalog.Link, targetOID pagefile.OID, target *schema.Object, want []pagefile.OID) error {
	// Drop any existing link object first; a fresh one is created if needed.
	// Deleting tolerates a dangling OID — that is one of the corruptions
	// being repaired.
	if lp := target.FindLink(l.ID); lp != nil && lp.Mode == schema.LinkModeObject {
		store, err := m.linkStore(l)
		if err != nil {
			return err
		}
		if err := store.Delete(lp.LinkOID); err != nil && !errors.Is(err, heap.ErrNotFound) {
			return err
		}
	}
	target.RemoveLink(l.ID)
	switch {
	case len(want) == 0:
		return nil
	case len(want) <= m.inlineMax:
		target.SetLink(schema.LinkPair{LinkID: l.ID, Mode: schema.LinkModeInline, Inline: want})
		return nil
	default:
		store, err := m.linkStore(l)
		if err != nil {
			return err
		}
		lobj := &links.Object{}
		for _, oid := range want {
			lobj.Add(links.Ref{OID: oid})
		}
		loid, err := store.Create(lobj, targetOID.Page)
		if err != nil {
			return err
		}
		target.SetLink(schema.LinkPair{LinkID: l.ID, Mode: schema.LinkModeObject, LinkOID: loid})
		return nil
	}
}

// repairCollapsed makes the collapsed link structures of p exact: terminals
// with sources carry a tagged link object listing exactly those sources,
// routing intermediates carry the marker pair, and nothing else carries
// either. Terminal and intermediate sets are scanned once each (once total if
// the path's type chain self-loops).
func (m *Manager) repairCollapsed(p *catalog.Path, st *repairState, rep *RepairReport) error {
	cl := p.CollapsedLink
	store, err := m.linkStore(cl)
	if err != nil {
		return err
	}
	wantTags := st.wantTags[p.ID]
	routing := st.routing[p.ID]

	typeNames := []string{p.TerminalType().Name}
	if inter := p.Types[1].Name; inter != typeNames[0] {
		typeNames = append(typeNames, inter)
	}
	for _, tn := range typeNames {
		t, ok := m.cat.TypeByName(tn)
		if !ok {
			continue
		}
		for _, set := range m.setsOfType(tn) {
			file, err := m.st.SetFile(set.Name)
			if err != nil {
				return err
			}
			err = file.Scan(func(oid pagefile.OID, payload []byte) error {
				obj, err := schema.Decode(t, payload)
				if err != nil {
					return err
				}
				return m.repairCollapsedObject(p, store, oid, obj, wantTags[oid], routing[oid], rep)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// repairCollapsedObject fixes one object's pair for the collapsed link:
// want != nil → exact tagged link object; else routes → marker; else nothing.
// (An object that is both terminal and routing intermediate — a self-looping
// type chain — keeps the tagged link object, which doubles as the marker,
// matching the eager-maintenance behaviour.)
func (m *Manager) repairCollapsedObject(p *catalog.Path, store *links.Store, oid pagefile.OID, obj *schema.Object, want map[pagefile.OID]pagefile.OID, routes bool, rep *RepairReport) error {
	cl := p.CollapsedLink
	lp := obj.FindLink(cl.ID)
	if len(want) > 0 {
		wantObj := &links.Object{Tagged: true}
		for src, tag := range want {
			wantObj.Add(links.Ref{OID: src, Tag: tag})
		}
		if lp != nil && lp.Mode == schema.LinkModeObject {
			got, err := store.Read(lp.LinkOID)
			if err == nil && refsEqual(got, wantObj) {
				return nil
			}
			if err == nil {
				// Readable but wrong: rewrite in place, keeping the OID.
				if err := store.Write(lp.LinkOID, wantObj); err != nil {
					return err
				}
				rep.CollapsedFixed++
				return nil
			}
		}
		// Missing, inline-moded, or dangling: replace with a fresh object.
		if lp != nil && lp.Mode == schema.LinkModeObject {
			if err := store.Delete(lp.LinkOID); err != nil && !errors.Is(err, heap.ErrNotFound) {
				return err
			}
		}
		loid, err := store.Create(wantObj, oid.Page)
		if err != nil {
			return err
		}
		obj.SetLink(schema.LinkPair{LinkID: cl.ID, Mode: schema.LinkModeObject, LinkOID: loid})
		if err := m.st.WriteObject(oid, obj); err != nil {
			return err
		}
		rep.CollapsedFixed++
		return nil
	}
	if routes {
		// Needs the marker pair (an empty inline pair).
		if lp != nil && lp.Mode == schema.LinkModeInline && len(lp.Inline) == 0 {
			return nil
		}
		if lp != nil && lp.Mode == schema.LinkModeObject {
			if err := store.Delete(lp.LinkOID); err != nil && !errors.Is(err, heap.ErrNotFound) {
				return err
			}
		}
		obj.SetLink(schema.LinkPair{LinkID: cl.ID, Mode: schema.LinkModeInline})
		if err := m.st.WriteObject(oid, obj); err != nil {
			return err
		}
		rep.MarkersFixed++
		return nil
	}
	if lp == nil {
		return nil
	}
	// Neither terminal nor routing: the pair is stale.
	fixed := &rep.MarkersFixed
	if lp.Mode == schema.LinkModeObject {
		if err := store.Delete(lp.LinkOID); err != nil && !errors.Is(err, heap.ErrNotFound) {
			return err
		}
		fixed = &rep.CollapsedFixed
	}
	obj.RemoveLink(cl.ID)
	if err := m.st.WriteObject(oid, obj); err != nil {
		return err
	}
	*fixed++
	return nil
}

// repairGroups sweeps stale S′ entries off ex-terminals, then verifies each
// separate group's paths and rebuilds the group from scratch if any still
// fail. The rebuild recreates the S′ file in terminal physical order (the
// clustering property), re-counts every refcount and re-installs every hidden
// S′ reference — the heavyweight but complete fix.
func (m *Manager) repairGroups(st *repairState, rep *RepairReport) error {
	gs := m.cat.Groups()
	sort.Slice(gs, func(i, j int) bool { return gs[i].ID < gs[j].ID })
	for _, g := range gs {
		paths := m.cat.PathsWithGroup(g.ID)
		if len(paths) == 0 {
			continue
		}
		p := paths[0]
		// Sweep: an object holding an S′ entry for g without being a derived
		// terminal would poison a later registration (the entry's SOID no
		// longer means anything), so drop such entries before deciding
		// whether a rebuild is needed.
		valid := st.sepTerms[g.ID]
		tType := p.TerminalType()
		for _, set := range m.setsOfType(tType.Name) {
			file, err := m.st.SetFile(set.Name)
			if err != nil {
				return err
			}
			err = file.Scan(func(oid pagefile.OID, payload []byte) error {
				if valid[oid] {
					return nil
				}
				obj, err := schema.Decode(tType, payload)
				if err != nil {
					return err
				}
				if obj.FindSep(g.ID) == nil {
					return nil
				}
				obj.RemoveSep(g.ID)
				if err := m.st.WriteObject(oid, obj); err != nil {
					return err
				}
				rep.SepSwept++
				return nil
			})
			if err != nil {
				return err
			}
		}
		// A group whose fields are not fully built (a failed BuildPath or
		// field extension) is always rebuilt; otherwise rebuild only if a
		// path of the group still fails verification.
		rebuild := g.Built != len(g.Fields)
		if !rebuild {
			for _, gp := range paths {
				if len(m.verifyPath(gp)) > 0 {
					rebuild = true
					break
				}
			}
		}
		if !rebuild {
			continue
		}
		// The same derivation as the build of a path of the group, minus the
		// link structures: the link phase has already made those exact.
		if err := m.build(p, func(*catalog.Link) bool { return false }); err != nil {
			return err
		}
		rep.GroupsRebuilt++
	}
	return nil
}

// sortedOIDs flattens an OID set into sorted order.
func sortedOIDs(set map[pagefile.OID]bool) []pagefile.OID {
	if len(set) == 0 {
		return nil
	}
	out := make([]pagefile.OID, 0, len(set))
	for oid := range set {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func oidsEqual(a, b []pagefile.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func refsEqual(a, b *links.Object) bool {
	if a.Tagged != b.Tagged || len(a.Refs) != len(b.Refs) {
		return false
	}
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			return false
		}
	}
	return true
}
