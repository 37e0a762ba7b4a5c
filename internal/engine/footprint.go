package engine

import (
	"slices"
	"sort"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// footprint is a DML statement's write footprint: the sets whose locks the
// statement must hold (sorted by name, the global acquisition order) and the
// page files a commit in that footprint can dirty — set heaps, the sets'
// index trees, and the link/S′ files of every replication path the footprint
// intersects. The file set bounds the buffer-pool capture scope the statement
// commits or rolls back.
type footprint struct {
	sets  []string
	files map[pagefile.FileID]bool
}

// computeFootprint derives the footprint of a statement targeting the given
// sets. Replication couples sets through types: updating an object whose type
// appears in a replication path can propagate hidden values, link structures,
// and S′ registrations into any set holding objects of the path's other
// types — and those paths' types can chain into further paths. The closure is
// the fixpoint over path type-lists.
//
// A target set whose type appears in no path propagates nowhere: its
// footprint is itself alone, so writers to unreplicated sets never share
// locks (the disjoint-writer scaling case). Callers hold db.mu in either
// mode; the catalog is only mutated under the exclusive lock.
func (db *DB) computeFootprint(targets ...string) footprint {
	// This runs once per statement, and a catalog holds a handful of sets,
	// types and paths: membership is a scan of a short slice, not a map.
	fp := footprint{files: map[pagefile.FileID]bool{}}
	var closure []string // type names
	add := func(list []string, name string) []string {
		if slices.Contains(list, name) {
			return list
		}
		return append(list, name)
	}
	for _, t := range targets {
		fp.sets = add(fp.sets, t)
		if s, ok := db.cat.SetByName(t); ok {
			closure = add(closure, s.TypeName)
		}
	}

	// Type closure: seeded with the targets' types, absorb every path sharing
	// a type with the closure until nothing new joins.
	paths := db.cat.Paths()
	inPath := make([]bool, len(paths))
	coupled := false
	for changed := true; changed; {
		changed = false
		for i, p := range paths {
			if inPath[i] || !slices.ContainsFunc(p.Types, func(t *schema.Type) bool { return slices.Contains(closure, t.Name) }) {
				continue
			}
			inPath[i], changed, coupled = true, true, true
			for _, t := range p.Types {
				closure = add(closure, t.Name)
			}
		}
	}

	// Sets: the targets always; other sets only when a path actually couples
	// their type (a set of an unreplicated type shares its type's other sets'
	// heaps with no one).
	if coupled {
		for _, s := range db.cat.Sets() {
			if slices.Contains(closure, s.TypeName) {
				fp.sets = add(fp.sets, s.Name)
			}
		}
	}
	sort.Strings(fp.sets)

	// Files: set heaps, their indexes, and the intersecting paths' link and
	// S′ files.
	for _, name := range fp.sets {
		s, ok := db.cat.SetByName(name)
		if !ok {
			continue
		}
		fp.files[s.FileID] = true
		for _, ix := range db.cat.IndexesOn(name) {
			fp.files[ix.FileID] = true
		}
	}
	for i, p := range paths {
		if !inPath[i] {
			continue
		}
		for _, l := range pathLinks(p) {
			if l.HasFile {
				fp.files[l.FileID] = true
			}
		}
		if p.Group != nil && p.Group.HasFile {
			fp.files[p.Group.FileID] = true
		}
	}
	return fp
}

// pathLinks returns every link of p, the collapsed link included.
func pathLinks(p *catalog.Path) []*catalog.Link {
	if p.CollapsedLink == nil {
		return p.Links
	}
	return append(append([]*catalog.Link(nil), p.Links...), p.CollapsedLink)
}
