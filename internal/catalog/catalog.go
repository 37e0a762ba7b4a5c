// Package catalog holds the system catalog: type definitions, named sets,
// index definitions, and — central to the paper — replication path metadata.
//
// Replication paths are registered here with their link sequences (§4.1.3).
// Link IDs are allocated so that paths sharing a common prefix share links
// (§4.1.4): the prefix "Emp1.dept" of Emp1.dept.name, Emp1.dept.budget and
// Emp1.dept.org.name maps to a single link with a single link file. Separate
// replication paths sharing a source set and ref chain share one S′ group,
// so the replicated values for D.name and D.budget live in one object (§5).
package catalog

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Strategy selects a replication storage strategy.
type Strategy uint8

// The two strategies of the paper.
const (
	InPlace Strategy = iota + 1
	Separate
)

func (s Strategy) String() string {
	switch s {
	case InPlace:
		return "in-place"
	case Separate:
		return "separate"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// AllFields is the terminal-field name requesting full object replication
// ("replicate Emp1.dept.all", §3.3.1).
const AllFields = "all"

// PathSpec is a replication path as specified by the user:
// Source.Refs[0].Refs[1]...Field, e.g. {Emp1, [dept org], name}.
type PathSpec struct {
	Source string   // set name the path emanates from
	Refs   []string // chain of reference attributes
	Field  string   // terminal field name, or AllFields
}

// String renders the spec in the paper's dotted syntax.
func (s PathSpec) String() string {
	parts := append([]string{s.Source}, s.Refs...)
	parts = append(parts, s.Field)
	return strings.Join(parts, ".")
}

// ParsePathSpec parses "Set.ref1.ref2.field" (at least one ref required).
func ParsePathSpec(s string) (PathSpec, error) {
	parts := strings.Split(s, ".")
	if len(parts) < 3 {
		return PathSpec{}, fmt.Errorf("catalog: replication path %q needs at least set.ref.field", s)
	}
	for _, p := range parts {
		if p == "" {
			return PathSpec{}, fmt.Errorf("catalog: replication path %q has an empty component", s)
		}
	}
	return PathSpec{Source: parts[0], Refs: parts[1 : len(parts)-1], Field: parts[len(parts)-1]}, nil
}

// Link is one link of an inverted path: the inverse of reference attribute
// RefField, mapping objects of ToType back to the objects of FromType that
// reference them. Links are shared by every path with the same (source set,
// ref prefix); Level is the link's position in those paths.
type Link struct {
	ID       uint8
	Source   string // source set of the paths sharing this link
	Prefix   []string
	RefField string // == Prefix[len(Prefix)-1]
	FromType string
	ToType   string
	Level    int // 0-based position in the path
	FileID   pagefile.FileID
	HasFile  bool
}

// ReplField identifies one replicated terminal field of a path. Idx is the
// stable index used as FieldIdx in hidden values and S′ objects; Terminal is
// the field index within the terminal type.
type ReplField struct {
	Idx      uint8
	Terminal int
	Name     string
	Kind     schema.Kind
}

// Group is a separate-replication S′ set shared by all separate paths with
// the same source set and ref chain. Its ID shares the hidden-value ID space
// with path IDs, so a source object's hidden (ID, HiddenSPrimeIdx) entry
// unambiguously names the group. A group is never widened in place (see
// AddPath).
type Group struct {
	ID      uint8
	Source  string
	Refs    []string
	Fields  []ReplField
	FileID  pagefile.FileID
	HasFile bool
}

// HiddenSPrimeIdx is the reserved FieldIdx under which a source object's
// hidden reference to its S′ object is stored.
const HiddenSPrimeIdx = 0xFF

// Path is a registered replication path.
type Path struct {
	ID       uint8
	Spec     PathSpec
	Strategy Strategy
	// Types[0] is the source set's type; Types[i+1] is the type reached by
	// Refs[i]. The terminal type is Types[len(Refs)].
	Types []*schema.Type
	// Links[i] inverts Refs[i]. For in-place paths len(Links) == len(Refs);
	// for separate paths the last ref needs no link (§5.2), so
	// len(Links) == len(Refs)-1.
	Links []*Link
	// Fields are the replicated terminal fields ("all" expands to every
	// scalar field of the terminal type).
	Fields []ReplField
	// Group is non-nil for separate paths.
	Group *Group
	// Collapsed marks a collapsed inverted path (§4.3.3): a single link maps
	// terminal objects directly to source objects with intermediate tags.
	// Only 2-level in-place paths support collapsing.
	Collapsed bool
	// CollapsedLink replaces Links for a collapsed path.
	CollapsedLink *Link
	// Deferred marks a path whose data-field update propagation is delayed
	// until the replicated values are next read (the paper's §8 future-work
	// item: "replication techniques in which updates are not propagated
	// until needed"). Repeated updates to the same terminal then cost one
	// propagation. Structural maintenance (reference-attribute changes,
	// inserts, deletes) stays eager. In-place paths only.
	Deferred bool
}

// NLevels returns the number of functional joins the path spans.
func (p *Path) NLevels() int { return len(p.Spec.Refs) }

// TerminalType returns the type at the end of the ref chain.
func (p *Path) TerminalType() *schema.Type { return p.Types[len(p.Types)-1] }

// FieldByTerminal returns the ReplField covering terminal field index ti.
func (p *Path) FieldByTerminal(ti int) (ReplField, bool) {
	for _, f := range p.Fields {
		if f.Terminal == ti {
			return f, true
		}
	}
	return ReplField{}, false
}

// Set is a named top-level set stored as one disk file.
type Set struct {
	Name     string
	TypeName string
	FileID   pagefile.FileID
}

// Index describes a B+tree index on a set. Path is empty for an index on a
// base field; for an index on a replicated path (§3.3.4) Path names the ref
// chain and Field the terminal field.
type Index struct {
	Name      string
	Set       string
	Field     string
	Path      []string
	Clustered bool
	KeyKind   schema.Kind
	FileID    pagefile.FileID
}

// IsPathIndex reports whether the index is built on a replicated path.
func (ix *Index) IsPathIndex() bool { return len(ix.Path) > 0 }

// Catalog is the in-memory system catalog. A replication path is live or
// building: AddPath registers it as building, which reserves its path, link
// and group IDs, but the path queries (Paths, PathsFromSet, PathsWithLink,
// PathsWithGroup, FindPath, Groups) see live paths only, so no query, plan or
// propagation routes through it. Publish makes it live; Retire turns it back
// into a building path whose teardown is pending.
type Catalog struct {
	types      map[string]*schema.Type
	typesByTag map[uint16]*schema.Type
	sets       map[string]*Set
	indexes    map[string]*Index
	paths      []*Path // live
	building   []*Path
	linksByKey map[string]*Link
	linksByID  map[uint8]*Link
	nextTag    uint16
	nextPathID uint8 // shared by paths and groups (one hidden-ID space)
	nextLinkID uint8
	rederive   bool // see NeedsRederive
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		types:      make(map[string]*schema.Type),
		typesByTag: make(map[uint16]*schema.Type),
		sets:       make(map[string]*Set),
		indexes:    make(map[string]*Index),
		linksByKey: make(map[string]*Link),
		linksByID:  make(map[uint8]*Link),
		nextTag:    1,
		nextPathID: 1,
		nextLinkID: 1,
	}
}

// DefineType registers a type built from fields, assigning its tag.
func (c *Catalog) DefineType(name string, fields []schema.Field) (*schema.Type, error) {
	if _, dup := c.types[name]; dup {
		return nil, fmt.Errorf("catalog: type %s already defined", name)
	}
	for _, f := range fields {
		if f.Kind == schema.KindRef {
			if _, ok := c.types[f.RefType]; !ok && f.RefType != name {
				return nil, fmt.Errorf("catalog: type %s: ref field %q targets undefined type %s", name, f.Name, f.RefType)
			}
		}
	}
	t, err := schema.NewType(name, c.nextTag, fields)
	if err != nil {
		return nil, err
	}
	c.nextTag++
	c.types[name] = t
	c.typesByTag[t.Tag] = t
	return t, nil
}

// TypeByName returns a registered type.
func (c *Catalog) TypeByName(name string) (*schema.Type, bool) {
	t, ok := c.types[name]
	return t, ok
}

// TypeByTag returns a registered type by its tag.
func (c *Catalog) TypeByTag(tag uint16) (*schema.Type, bool) {
	t, ok := c.typesByTag[tag]
	return t, ok
}

// CreateSet registers a named set of the given type. The caller (engine)
// assigns the backing file.
func (c *Catalog) CreateSet(name, typeName string, fileID pagefile.FileID) (*Set, error) {
	if _, dup := c.sets[name]; dup {
		return nil, fmt.Errorf("catalog: set %s already exists", name)
	}
	if _, ok := c.types[typeName]; !ok {
		return nil, fmt.Errorf("catalog: set %s: undefined type %s", name, typeName)
	}
	s := &Set{Name: name, TypeName: typeName, FileID: fileID}
	c.sets[name] = s
	return s, nil
}

// SetByName returns a registered set.
func (c *Catalog) SetByName(name string) (*Set, bool) {
	s, ok := c.sets[name]
	return s, ok
}

// Sets returns all registered sets.
func (c *Catalog) Sets() []*Set {
	out := make([]*Set, 0, len(c.sets))
	for _, s := range c.sets {
		out = append(out, s)
	}
	return out
}

// SetType returns the type of a set.
func (c *Catalog) SetType(setName string) (*schema.Type, error) {
	s, ok := c.sets[setName]
	if !ok {
		return nil, fmt.Errorf("catalog: no set %s", setName)
	}
	t, ok := c.types[s.TypeName]
	if !ok {
		return nil, fmt.Errorf("catalog: set %s has undefined type %s", setName, s.TypeName)
	}
	return t, nil
}

// ErrPathExists is returned when the same path is replicated twice.
var ErrPathExists = errors.New("catalog: replication path already exists")

// PathOption modifies path registration.
type PathOption func(*Path)

// WithCollapsed requests a collapsed inverted path (§4.3.3). Valid only for
// 2-level in-place paths.
func WithCollapsed() PathOption { return func(p *Path) { p.Collapsed = true } }

// WithDeferred requests deferred update propagation (§8 future work):
// data-field updates to the path's terminal objects are queued and applied
// when the replicated values are next read (or on an explicit flush).
// Valid only for in-place paths.
func WithDeferred() PathOption { return func(p *Path) { p.Deferred = true } }

// AddPath validates a replication path and registers it as building,
// allocating its link sequence with prefix sharing. A separate path shares
// the live S′ group of its source set and ref chain if that holds all its
// fields; otherwise it gets a new group, the live one's fields followed by
// its own, and the live group a building placeholder path: once Publish has
// moved the live paths to the new group, tearing the placeholder down clears
// the old group's state.
func (c *Catalog) AddPath(spec PathSpec, strategy Strategy, opts ...PathOption) (*Path, error) {
	if strategy != InPlace && strategy != Separate {
		return nil, fmt.Errorf("catalog: invalid strategy %d", strategy)
	}
	if len(spec.Refs) == 0 {
		return nil, fmt.Errorf("catalog: path %s has no reference attributes", spec)
	}
	srcType, err := c.SetType(spec.Source)
	if err != nil {
		return nil, err
	}
	types := []*schema.Type{srcType}
	cur := srcType
	for i, ref := range spec.Refs {
		f, ok := cur.Field(ref)
		if !ok {
			return nil, fmt.Errorf("catalog: path %s: type %s has no field %q", spec, cur.Name, ref)
		}
		if f.Kind != schema.KindRef {
			return nil, fmt.Errorf("catalog: path %s: field %s.%s is not a reference attribute", spec, cur.Name, ref)
		}
		next, ok := c.types[f.RefType]
		if !ok {
			return nil, fmt.Errorf("catalog: path %s: ref %d targets undefined type %s", spec, i, f.RefType)
		}
		types = append(types, next)
		cur = next
	}
	terminal := cur
	var fields []ReplField
	if spec.Field == AllFields {
		for _, ti := range terminal.ScalarFields() {
			f := terminal.Fields[ti]
			fields = append(fields, ReplField{Terminal: ti, Name: f.Name, Kind: f.Kind})
		}
		if len(fields) == 0 {
			return nil, fmt.Errorf("catalog: path %s: terminal type %s has no scalar fields", spec, terminal.Name)
		}
	} else {
		f, ok := terminal.Field(spec.Field)
		if !ok {
			return nil, fmt.Errorf("catalog: path %s: terminal type %s has no field %q", spec, terminal.Name, spec.Field)
		}
		if f.Kind == schema.KindRef && strategy != InPlace {
			// Replicating a reference attribute collapses an n-level path to
			// n-1 levels (§3.3.3); the paper describes it for in-place
			// replication, where the hidden OID saves a functional join.
			// Under separate replication an OID in S′ would only add
			// indirection.
			return nil, fmt.Errorf("catalog: path %s: reference attribute %q can only be replicated in-place (§3.3.3)", spec, spec.Field)
		}
		fields = append(fields, ReplField{Terminal: terminal.FieldIndex(spec.Field), Name: f.Name, Kind: f.Kind})
	}
	for _, p := range c.registered() {
		if p.Spec.String() == spec.String() && p.Strategy == strategy {
			return nil, fmt.Errorf("%w: %s", ErrPathExists, spec)
		}
	}

	p := &Path{Spec: spec, Strategy: strategy, Types: types}
	for _, o := range opts {
		o(p)
	}
	if p.Collapsed && (strategy != InPlace || len(spec.Refs) != 2) {
		return nil, fmt.Errorf("catalog: path %s: collapsed inverted paths require a 2-level in-place path", spec)
	}
	if p.Deferred && strategy != InPlace {
		return nil, fmt.Errorf("catalog: path %s: deferred propagation requires an in-place path (separate replication already updates one shared object)", spec)
	}
	if p.ID, err = c.newHiddenID(); err != nil {
		return nil, err
	}

	var placeholder *Path
	switch {
	case p.Collapsed:
		// One collapsed link spanning the whole chain; never shared.
		link, err := c.newLink(spec.Source, spec.Refs, len(spec.Refs)-1, types[0].Name, terminal.Name)
		if err != nil {
			return nil, err
		}
		p.CollapsedLink = link
	case strategy == InPlace:
		for i := range spec.Refs {
			link, err := c.shareOrCreateLink(spec.Source, spec.Refs[:i+1], types[i].Name, types[i+1].Name)
			if err != nil {
				return nil, err
			}
			p.Links = append(p.Links, link)
		}
	case strategy == Separate:
		for i := 0; i < len(spec.Refs)-1; i++ {
			link, err := c.shareOrCreateLink(spec.Source, spec.Refs[:i+1], types[i].Name, types[i+1].Name)
			if err != nil {
				return nil, err
			}
			p.Links = append(p.Links, link)
		}
		live := c.liveGroup(spec.Source, spec.Refs)
		g := live
		if live == nil || slices.ContainsFunc(fields, func(f ReplField) bool { return groupField(live, f) < 0 }) {
			g = &Group{Source: spec.Source, Refs: slices.Clone(spec.Refs)}
			if g.ID, err = c.newHiddenID(); err != nil {
				return nil, err
			}
			if live != nil {
				g.Fields = slices.Clone(live.Fields)
				placeholder = &Path{Spec: spec, Strategy: Separate, Types: types, Links: p.Links, Group: live}
				if placeholder.ID, err = c.newHiddenID(); err != nil {
					return nil, err
				}
			}
		}
		for i := range fields {
			j := groupField(g, fields[i])
			if j < 0 { // only ever in a new group
				fields[i].Idx = uint8(len(g.Fields))
				g.Fields = append(g.Fields, fields[i])
				continue
			}
			fields[i].Idx = g.Fields[j].Idx
		}
		p.Group = g
	}
	if strategy == InPlace {
		// Field indexes are per-path for in-place replication.
		for i := range fields {
			fields[i].Idx = uint8(i)
		}
	}
	p.Fields = fields
	c.building = append(c.building, p)
	if placeholder != nil {
		c.building = append(c.building, placeholder)
	}
	return p, nil
}

// newHiddenID allocates the next ID of the space paths and groups share.
func (c *Catalog) newHiddenID() (uint8, error) {
	if c.nextPathID == 0 {
		return 0, errors.New("catalog: path/group ID space exhausted")
	}
	c.nextPathID++
	return c.nextPathID - 1, nil
}

// groupField returns the position of f's terminal field in g, -1 if g does
// not replicate it.
func groupField(g *Group, f ReplField) int {
	return slices.IndexFunc(g.Fields, func(gf ReplField) bool { return gf.Terminal == f.Terminal })
}

// liveGroup returns the S′ group live paths from source through refs use.
func (c *Catalog) liveGroup(source string, refs []string) *Group {
	for _, p := range c.paths {
		if g := p.Group; g != nil && g.Source == source && slices.Equal(g.Refs, refs) {
			return g
		}
	}
	return nil
}

// Publish makes building path p live. When p brought a new S′ group, every
// live path of the same source and ref chain moves to it.
func (c *Catalog) Publish(p *Path) error {
	i := slices.Index(c.building, p)
	if i < 0 {
		return fmt.Errorf("catalog: path %s is not building", p.Spec)
	}
	c.building = slices.Delete(c.building, i, i+1)
	if g := p.Group; g != nil {
		if live := c.liveGroup(g.Source, g.Refs); live != nil && live != g {
			for _, q := range c.paths {
				if q.Group == live {
					q.Group = g
				}
			}
		}
	}
	c.paths = append(c.paths, p)
	return nil
}

// Retire turns live path p into a building one, so nothing routes through it
// while its replicated state is torn down.
func (c *Catalog) Retire(p *Path) error {
	i := slices.Index(c.paths, p)
	if i < 0 {
		return fmt.Errorf("catalog: path %s is not live", p.Spec)
	}
	c.paths = slices.Delete(c.paths, i, i+1)
	c.building = append(c.building, p)
	return nil
}

// Building returns the building paths, in registration order.
func (c *Catalog) Building() []*Path { return slices.Clone(c.building) }

// registered returns every path, live and building.
func (c *Catalog) registered() []*Path { return append(slices.Clone(c.paths), c.building...) }

// SoleLinkUser reports whether p is the only registered path, live or
// building, whose inverted path contains link l: the link's structures are
// p's alone to build or tear down.
func (c *Catalog) SoleLinkUser(p *Path, l *Link) bool {
	for _, q := range c.registered() {
		if q != p && q.usesLink(l.ID) {
			return false
		}
	}
	return true
}

// SoleGroupUser reports whether p is the only registered path, live or
// building, of its S′ group.
func (c *Catalog) SoleGroupUser(p *Path) bool {
	for _, q := range c.registered() {
		if q != p && q.Group == p.Group {
			return false
		}
	}
	return true
}

// usesLink reports whether link id is on p's inverted path (collapsed link
// included).
func (p *Path) usesLink(id uint8) bool {
	if p.CollapsedLink != nil && p.CollapsedLink.ID == id {
		return true
	}
	return slices.ContainsFunc(p.Links, func(l *Link) bool { return l.ID == id })
}

func linkKey(source string, prefix []string) string {
	return source + "." + strings.Join(prefix, ".")
}

func (c *Catalog) shareOrCreateLink(source string, prefix []string, fromType, toType string) (*Link, error) {
	key := linkKey(source, prefix)
	if l, ok := c.linksByKey[key]; ok {
		return l, nil
	}
	return c.newLink(source, prefix, len(prefix)-1, fromType, toType)
}

func (c *Catalog) newLink(source string, prefix []string, level int, fromType, toType string) (*Link, error) {
	if c.nextLinkID == 0 {
		return nil, errors.New("catalog: link ID space exhausted")
	}
	l := &Link{
		ID:       c.nextLinkID,
		Source:   source,
		Prefix:   append([]string(nil), prefix...),
		RefField: prefix[len(prefix)-1],
		FromType: fromType,
		ToType:   toType,
		Level:    level,
	}
	c.nextLinkID++
	c.linksByKey[linkKey(source, prefix)] = l
	c.linksByID[l.ID] = l
	return l, nil
}

// Paths returns the live paths.
func (c *Catalog) Paths() []*Path { return c.paths }

// PathsFromSet returns the live paths emanating from the named set.
func (c *Catalog) PathsFromSet(set string) []*Path {
	var out []*Path
	for _, p := range c.paths {
		if p.Spec.Source == set {
			out = append(out, p)
		}
	}
	return out
}

// Links returns every registered link.
func (c *Catalog) Links() []*Link {
	out := make([]*Link, 0, len(c.linksByID))
	for _, l := range c.linksByID {
		out = append(out, l)
	}
	return out
}

// Groups returns the S′ groups of live paths.
func (c *Catalog) Groups() []*Group {
	var out []*Group
	for _, p := range c.paths {
		if p.Group != nil && !slices.Contains(out, p.Group) {
			out = append(out, p.Group)
		}
	}
	return out
}

// NeedsRederive reports whether the snapshot this catalog was restored from
// carries taint markers. Versions that recorded a failed Replicate or
// Unreplicate as taint wrote them; the derived state of such a database is
// re-derived once (Repair) before it is trusted.
func (c *Catalog) NeedsRederive() bool { return c.rederive }

// LinkByID resolves a link ID found in an object's (link-OID, link-ID) pair.
func (c *Catalog) LinkByID(id uint8) (*Link, bool) {
	l, ok := c.linksByID[id]
	return l, ok
}

// LinkFor finds the (shared) link inverting the given ref prefix from a
// source set, if any path maintains one. It powers inverse functions
// (bidirectional reference attributes, §8): the link's structures map a
// target object back to its referrers.
func (c *Catalog) LinkFor(source string, prefix []string) (*Link, bool) {
	l, ok := c.linksByKey[linkKey(source, prefix)]
	return l, ok
}

// PathsWithLink returns the live paths whose inverted path contains link id
// (including as collapsed link).
func (c *Catalog) PathsWithLink(id uint8) []*Path {
	var out []*Path
	for _, p := range c.paths {
		if p.usesLink(id) {
			out = append(out, p)
		}
	}
	return out
}

// GroupByID resolves a separate-replication group ID found in an object's S′
// entry or hidden reference: the group of any registered path, live or
// building.
func (c *Catalog) GroupByID(id uint8) (*Group, bool) {
	for _, paths := range [2][]*Path{c.paths, c.building} {
		for _, p := range paths {
			if p.Group != nil && p.Group.ID == id {
				return p.Group, true
			}
		}
	}
	return nil, false
}

// PathsWithGroup returns the live separate paths belonging to group id.
func (c *Catalog) PathsWithGroup(id uint8) []*Path {
	var out []*Path
	for _, p := range c.paths {
		if p.Group != nil && p.Group.ID == id {
			out = append(out, p)
		}
	}
	return out
}

// LinkSequence returns the path's link IDs in order, the paper's "link
// sequence" (§4.1.3).
func (p *Path) LinkSequence() []uint8 {
	if p.CollapsedLink != nil {
		return []uint8{p.CollapsedLink.ID}
	}
	out := make([]uint8, len(p.Links))
	for i, l := range p.Links {
		out[i] = l.ID
	}
	return out
}

// AddIndex registers an index definition.
func (c *Catalog) AddIndex(ix *Index) error {
	if _, dup := c.indexes[ix.Name]; dup {
		return fmt.Errorf("catalog: index %s already exists", ix.Name)
	}
	if _, ok := c.sets[ix.Set]; !ok {
		return fmt.Errorf("catalog: index %s: no set %s", ix.Name, ix.Set)
	}
	c.indexes[ix.Name] = ix
	return nil
}

// IndexByName returns a registered index.
func (c *Catalog) IndexByName(name string) (*Index, bool) {
	ix, ok := c.indexes[name]
	return ix, ok
}

// IndexesOn returns the indexes defined on a set.
func (c *Catalog) IndexesOn(set string) []*Index {
	var out []*Index
	for _, ix := range c.indexes {
		if ix.Set == set {
			out = append(out, ix)
		}
	}
	return out
}

// IndexFor finds an index on (set, base field), if any.
func (c *Catalog) IndexFor(set, field string) (*Index, bool) {
	for _, ix := range c.indexes {
		if ix.Set == set && !ix.IsPathIndex() && ix.Field == field {
			return ix, true
		}
	}
	return nil, false
}

// PathIndexFor finds an index on (set, ref chain, terminal field), if any.
func (c *Catalog) PathIndexFor(set string, refs []string, field string) (*Index, bool) {
	for _, ix := range c.indexes {
		if ix.Set != set || !ix.IsPathIndex() || ix.Field != field || len(ix.Path) != len(refs) {
			continue
		}
		match := true
		for i := range refs {
			if ix.Path[i] != refs[i] {
				match = false
				break
			}
		}
		if match {
			return ix, true
		}
	}
	return nil, false
}

// RemovePath unregisters a building path after its replicated state has
// been torn down. Links no longer used by any registered path are dropped
// from the registries; the caller (engine/core) is responsible for having
// removed their structures from the objects first.
func (c *Catalog) RemovePath(p *Path) error {
	i := slices.Index(c.building, p)
	if i < 0 {
		return fmt.Errorf("catalog: path %s is not building", p.Spec)
	}
	c.building = slices.Delete(c.building, i, i+1)
	for _, l := range c.linksByID {
		if p.usesLink(l.ID) && !slices.ContainsFunc(c.registered(), func(q *Path) bool { return q.usesLink(l.ID) }) {
			delete(c.linksByID, l.ID)
			delete(c.linksByKey, linkKey(l.Source, l.Prefix))
		}
	}
	return nil
}

// RemoveIndex unregisters an index definition.
func (c *Catalog) RemoveIndex(name string) error {
	if _, ok := c.indexes[name]; !ok {
		return fmt.Errorf("catalog: no index %s", name)
	}
	delete(c.indexes, name)
	return nil
}

// FindPath locates a registered path by spec (and optionally strategy; pass
// 0 to match either).
func (c *Catalog) FindPath(spec PathSpec, strategy Strategy) (*Path, bool) {
	for _, p := range c.paths {
		if p.Spec.String() == spec.String() && (strategy == 0 || p.Strategy == strategy) {
			return p, true
		}
	}
	return nil, false
}
