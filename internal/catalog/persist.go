package catalog

import (
	"encoding/json"
	"fmt"

	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Snapshot serializes the whole catalog — types, sets, indexes, replication
// paths, links, and groups — so a file-backed database can be reopened. The
// format is JSON for debuggability; a catalog is metadata-sized.

type fieldSnap struct {
	Name    string      `json:"name"`
	Kind    schema.Kind `json:"kind"`
	RefType string      `json:"ref_type,omitempty"`
}

type typeSnap struct {
	Name   string      `json:"name"`
	Tag    uint16      `json:"tag"`
	Fields []fieldSnap `json:"fields"`
}

type setSnap struct {
	Name     string          `json:"name"`
	TypeName string          `json:"type"`
	FileID   pagefile.FileID `json:"file_id"`
}

type indexSnap struct {
	Name      string          `json:"name"`
	Set       string          `json:"set"`
	Field     string          `json:"field"`
	Path      []string        `json:"path,omitempty"`
	Clustered bool            `json:"clustered,omitempty"`
	KeyKind   schema.Kind     `json:"key_kind"`
	FileID    pagefile.FileID `json:"file_id"`
}

type linkSnap struct {
	ID       uint8           `json:"id"`
	Source   string          `json:"source"`
	Prefix   []string        `json:"prefix"`
	FromType string          `json:"from_type"`
	ToType   string          `json:"to_type"`
	Level    int             `json:"level"`
	FileID   pagefile.FileID `json:"file_id,omitempty"`
	HasFile  bool            `json:"has_file,omitempty"`
	Shared   bool            `json:"shared"` // registered in the prefix-sharing map
}

type replFieldSnap struct {
	Idx      uint8       `json:"idx"`
	Terminal int         `json:"terminal"`
	Name     string      `json:"name"`
	Kind     schema.Kind `json:"kind"`
}

type groupSnap struct {
	ID      uint8           `json:"id"`
	Source  string          `json:"source"`
	Refs    []string        `json:"refs"`
	Fields  []replFieldSnap `json:"fields"`
	FileID  pagefile.FileID `json:"file_id,omitempty"`
	HasFile bool            `json:"has_file,omitempty"`
	// Built counts the fields materialized in the S′ file, which is every
	// field of a group a catalog records. It is written for earlier versions,
	// which rebuild a group whose count falls short, and not read.
	Built int `json:"built"`
}

type pathSnap struct {
	ID            uint8           `json:"id"`
	Source        string          `json:"source"`
	Refs          []string        `json:"refs"`
	Field         string          `json:"field"`
	Strategy      Strategy        `json:"strategy"`
	LinkIDs       []uint8         `json:"link_ids"`
	CollapsedLink uint8           `json:"collapsed_link,omitempty"`
	Fields        []replFieldSnap `json:"fields"`
	GroupID       uint8           `json:"group_id,omitempty"`
	Collapsed     bool            `json:"collapsed,omitempty"`
	Deferred      bool            `json:"deferred,omitempty"`
	Building      bool            `json:"building,omitempty"`
}

type catalogSnap struct {
	Version    int         `json:"version"`
	Types      []typeSnap  `json:"types"`
	Sets       []setSnap   `json:"sets"`
	Indexes    []indexSnap `json:"indexes"`
	Links      []linkSnap  `json:"links"`
	Groups     []groupSnap `json:"groups"`
	Paths      []pathSnap  `json:"paths"`
	NextTag    uint16      `json:"next_tag"`
	NextPathID uint8       `json:"next_path_id"`
	NextLinkID uint8       `json:"next_link_id"`
	Rederive   bool        `json:"rederive,omitempty"` // see NeedsRederive
	// Tainted is read, never written: versions that recorded failed DDL as
	// per-set taint markers persisted them here (see NeedsRederive).
	Tainted map[string]string `json:"tainted,omitempty"`
}

const snapshotVersion = 1

// Snapshot serializes the catalog.
func (c *Catalog) Snapshot() ([]byte, error) {
	snap := catalogSnap{
		Version:    snapshotVersion,
		NextTag:    c.nextTag,
		NextPathID: c.nextPathID,
		NextLinkID: c.nextLinkID,
		Rederive:   c.rederive,
	}
	// Types in tag order for determinism.
	for tag := uint16(1); tag < c.nextTag; tag++ {
		t, ok := c.typesByTag[tag]
		if !ok {
			continue
		}
		ts := typeSnap{Name: t.Name, Tag: t.Tag}
		for _, f := range t.Fields {
			ts.Fields = append(ts.Fields, fieldSnap{Name: f.Name, Kind: f.Kind, RefType: f.RefType})
		}
		snap.Types = append(snap.Types, ts)
	}
	for _, s := range c.sets {
		snap.Sets = append(snap.Sets, setSnap{Name: s.Name, TypeName: s.TypeName, FileID: s.FileID})
	}
	sortBy(snap.Sets, func(a, b setSnap) bool { return a.Name < b.Name })
	for _, ix := range c.indexes {
		snap.Indexes = append(snap.Indexes, indexSnap{
			Name: ix.Name, Set: ix.Set, Field: ix.Field, Path: ix.Path,
			Clustered: ix.Clustered, KeyKind: ix.KeyKind, FileID: ix.FileID,
		})
	}
	sortBy(snap.Indexes, func(a, b indexSnap) bool { return a.Name < b.Name })
	seen := map[uint8]bool{}
	addLink := func(l *Link, shared bool) {
		if seen[l.ID] {
			return
		}
		seen[l.ID] = true
		snap.Links = append(snap.Links, linkSnap{
			ID: l.ID, Source: l.Source, Prefix: l.Prefix, FromType: l.FromType,
			ToType: l.ToType, Level: l.Level, FileID: l.FileID, HasFile: l.HasFile,
			Shared: shared,
		})
	}
	for _, l := range c.linksByKey {
		addLink(l, true)
	}
	for _, l := range c.linksByID {
		addLink(l, false) // collapsed links are not in the sharing map
	}
	sortBy(snap.Links, func(a, b linkSnap) bool { return a.ID < b.ID })
	seenGroup := map[uint8]bool{}
	for _, p := range c.registered() {
		g := p.Group
		if g == nil || seenGroup[g.ID] {
			continue
		}
		seenGroup[g.ID] = true
		gs := groupSnap{ID: g.ID, Source: g.Source, Refs: g.Refs, FileID: g.FileID, HasFile: g.HasFile, Built: len(g.Fields)}
		for _, f := range g.Fields {
			gs.Fields = append(gs.Fields, replFieldSnap(f))
		}
		snap.Groups = append(snap.Groups, gs)
	}
	sortBy(snap.Groups, func(a, b groupSnap) bool { return a.ID < b.ID })
	for i, p := range c.registered() {
		ps := pathSnap{
			ID: p.ID, Source: p.Spec.Source, Refs: p.Spec.Refs, Field: p.Spec.Field,
			Strategy: p.Strategy, Collapsed: p.Collapsed, Deferred: p.Deferred,
			Building: i >= len(c.paths),
		}
		for _, l := range p.Links {
			ps.LinkIDs = append(ps.LinkIDs, l.ID)
		}
		if p.CollapsedLink != nil {
			ps.CollapsedLink = p.CollapsedLink.ID
		}
		for _, f := range p.Fields {
			ps.Fields = append(ps.Fields, replFieldSnap(f))
		}
		if p.Group != nil {
			ps.GroupID = p.Group.ID
		}
		snap.Paths = append(snap.Paths, ps)
	}
	return json.MarshalIndent(snap, "", "  ")
}

func sortBy[T any](s []T, less func(a, b T) bool) {
	// Insertion sort: catalog collections are metadata-sized.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Restore rebuilds a catalog from a Snapshot.
func Restore(data []byte) (*Catalog, error) {
	var snap catalogSnap
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("catalog: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("catalog: unsupported snapshot version %d", snap.Version)
	}
	c := New()
	c.nextTag = snap.NextTag
	c.nextPathID = snap.NextPathID
	c.nextLinkID = snap.NextLinkID
	c.rederive = snap.Rederive || len(snap.Tainted) > 0
	for _, ts := range snap.Types {
		fields := make([]schema.Field, len(ts.Fields))
		for i, f := range ts.Fields {
			fields[i] = schema.Field{Name: f.Name, Kind: f.Kind, RefType: f.RefType}
		}
		if _, dup := c.typesByTag[ts.Tag]; dup || ts.Tag == 0 || ts.Tag >= c.nextTag {
			return nil, fmt.Errorf("catalog: type %s has tag %d, duplicate or outside [1, %d)", ts.Name, ts.Tag, c.nextTag)
		}
		t, err := schema.NewType(ts.Name, ts.Tag, fields)
		if err != nil {
			return nil, err
		}
		c.types[t.Name] = t
		c.typesByTag[t.Tag] = t
	}
	for _, ss := range snap.Sets {
		if _, ok := c.types[ss.TypeName]; !ok {
			return nil, fmt.Errorf("catalog: set %s references unknown type %s", ss.Name, ss.TypeName)
		}
		c.sets[ss.Name] = &Set{Name: ss.Name, TypeName: ss.TypeName, FileID: ss.FileID}
	}
	for _, is := range snap.Indexes {
		ix := &Index{
			Name: is.Name, Set: is.Set, Field: is.Field, Path: is.Path,
			Clustered: is.Clustered, KeyKind: is.KeyKind, FileID: is.FileID,
		}
		c.indexes[ix.Name] = ix
	}
	for _, ls := range snap.Links {
		if len(ls.Prefix) == 0 {
			return nil, fmt.Errorf("catalog: link %d has no ref prefix", ls.ID)
		}
		l := &Link{
			ID: ls.ID, Source: ls.Source, Prefix: ls.Prefix,
			RefField: ls.Prefix[len(ls.Prefix)-1],
			FromType: ls.FromType, ToType: ls.ToType, Level: ls.Level,
			FileID: ls.FileID, HasFile: ls.HasFile,
		}
		c.linksByID[l.ID] = l
		if ls.Shared {
			c.linksByKey[linkKey(l.Source, l.Prefix)] = l
		}
	}
	groups := map[uint8]*Group{}
	for _, gs := range snap.Groups {
		g := &Group{ID: gs.ID, Source: gs.Source, Refs: gs.Refs, FileID: gs.FileID, HasFile: gs.HasFile}
		for _, f := range gs.Fields {
			g.Fields = append(g.Fields, ReplField(f))
		}
		if err := g.buildSPrimeType(); err != nil {
			return nil, err
		}
		groups[g.ID] = g
	}
	for _, ps := range snap.Paths {
		p := &Path{
			ID:       ps.ID,
			Spec:     PathSpec{Source: ps.Source, Refs: ps.Refs, Field: ps.Field},
			Strategy: ps.Strategy, Collapsed: ps.Collapsed, Deferred: ps.Deferred,
		}
		srcType, err := c.SetType(ps.Source)
		if err != nil {
			return nil, err
		}
		p.Types = []*schema.Type{srcType}
		cur := srcType
		for _, ref := range ps.Refs {
			f, ok := cur.Field(ref)
			if !ok || f.Kind != schema.KindRef {
				return nil, fmt.Errorf("catalog: path %s: broken ref chain at %q", p.Spec, ref)
			}
			next, ok := c.types[f.RefType]
			if !ok {
				return nil, fmt.Errorf("catalog: path %s: unknown type %s", p.Spec, f.RefType)
			}
			p.Types = append(p.Types, next)
			cur = next
		}
		for _, id := range ps.LinkIDs {
			l, ok := c.linksByID[id]
			if !ok {
				return nil, fmt.Errorf("catalog: path %s references unknown link %d", p.Spec, id)
			}
			p.Links = append(p.Links, l)
		}
		if ps.CollapsedLink != 0 {
			l, ok := c.linksByID[ps.CollapsedLink]
			if !ok {
				return nil, fmt.Errorf("catalog: path %s references unknown collapsed link %d", p.Spec, ps.CollapsedLink)
			}
			p.CollapsedLink = l
		}
		for _, f := range ps.Fields {
			p.Fields = append(p.Fields, ReplField(f))
		}
		if ps.GroupID != 0 {
			g, ok := groups[ps.GroupID]
			if !ok {
				return nil, fmt.Errorf("catalog: path %s references unknown group %d", p.Spec, ps.GroupID)
			}
			p.Group = g
		}
		if ps.Building {
			c.building = append(c.building, p)
		} else {
			c.paths = append(c.paths, p)
		}
	}
	return c, nil
}
