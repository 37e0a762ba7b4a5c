package core

import "github.com/exodb/fieldrepl/internal/catalog"

// RepairReport is what a Repair pass found and what it left.
type RepairReport struct {
	Found     []error // Verify findings before the repair
	Remaining []error // Verify findings after it
}

// Clean reports whether the post-repair verification found no violations.
func (r RepairReport) Clean() bool { return len(r.Remaining) == 0 }

// Repair re-derives the replicated state of every live path from the primary
// objects, for damage no log covers — media corruption of a derived page. (A
// failed or crashed operation never needs it: statements roll back, and a
// schema operation that does not finish is torn down.) It is teardown and
// build, the two mechanisms Unreplicate and Replicate use:
//
//  1. one scan of the sets strips every live path's hidden values, link
//     pairs and S′ entries, reading no link or S′ object, so a damaged page
//     of their files cannot stop it;
//  2. every live link and S′ group is marked as having no file, and fresh
//     gives each a new, empty one; the old files are abandoned whole;
//  3. each live path is built in catalog order; a link is built by the first
//     path that uses it and an S′ group by its first path.
//
// The catalog's rederive flag is set from the start and cleared at the end,
// so a caller that commits in chunks marks every intermediate state as
// unfinished. The primary objects themselves are not repaired: a damaged
// page in a source set fails the pass with pagefile.ErrCorruptPage. The
// report holds Verify's findings before and after the pass.
func (m *Manager) Repair(fresh func() error) (*RepairReport, error) {
	rep := &RepairReport{Found: m.Verify()}
	m.cat.SetRederive(true)
	paths := m.cat.Paths()
	if err := m.strip(paths...); err != nil {
		return rep, err
	}
	for _, p := range paths {
		for _, l := range p.Links {
			l.HasFile = false
		}
		if p.CollapsedLink != nil {
			p.CollapsedLink.HasFile = false
		}
		if p.Group != nil {
			p.Group.HasFile = false
		}
	}
	if err := fresh(); err != nil {
		return rep, err
	}
	owner := map[uint8]*catalog.Path{}
	built := map[*catalog.Group]bool{}
	for _, p := range paths {
		for _, l := range p.Links {
			if owner[l.ID] == nil {
				owner[l.ID] = p
			}
		}
		if p.Group != nil {
			if built[p.Group] {
				continue
			}
			built[p.Group] = true
		}
		if err := m.build(p, func(l *catalog.Link) bool { return owner[l.ID] == p }); err != nil {
			return rep, err
		}
	}
	m.cat.SetRederive(false)
	rep.Remaining = m.Verify()
	return rep, nil
}
