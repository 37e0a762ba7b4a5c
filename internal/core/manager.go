// Package core implements field replication, the paper's central
// contribution: in-place and separate replication of reference-path fields,
// kept consistent through inverted paths built from link objects.
//
// The Manager is driven by the engine through these entry points:
//
//   - BuildPath: one-time construction of a path's hidden fields and
//     inverted path over existing data (the paper's observation that "the
//     cost of maintaining an inverted path consists primarily of the
//     one-time cost to build it"), and TeardownPath, its inverse.
//   - OnInsert / OnDelete: maintenance when source-set objects come and go
//     (§4.1.1 insert E / delete E).
//   - OnUpdate: propagation of data-field updates through the inverted path
//     and relocation of referrers when reference attributes change
//     (§4.1.1 update E.dept, §4.1.2 n-level ripple).
//
// The Manager never allocates files itself; the Storage interface hands it
// heap files for link objects and S′ sets, so the engine controls placement
// and I/O accounting.
package core

import (
	"errors"
	"fmt"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/links"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Storage is what the replication manager needs from the engine.
type Storage interface {
	// ReadObject reads and decodes the object at oid, which must be of type t.
	ReadObject(oid pagefile.OID, t *schema.Type) (*schema.Object, error)
	// WriteObject encodes and stores o at oid (the OID stays stable).
	WriteObject(oid pagefile.OID, o *schema.Object) error
	// LinkFile returns the heap file holding link objects for l.
	LinkFile(l *catalog.Link) (*heap.File, error)
	// GroupFile returns the S′ heap file for g.
	GroupFile(g *catalog.Group) (*heap.File, error)
	// SetFile returns the heap file backing a named set.
	SetFile(name string) (*heap.File, error)
}

// Listener is notified when a source object's replicated hidden value
// changes, so the engine can maintain indexes built on replicated paths
// (§3.3.4). old is the zero Value when the hidden value is first installed.
type Listener interface {
	HiddenChanged(source pagefile.OID, p *catalog.Path, f catalog.ReplField, old, new schema.Value)
}

// Manager implements field replication over a catalog and a Storage.
type Manager struct {
	cat       *catalog.Catalog
	st        Storage
	listener  Listener
	inlineMax int

	// Deferred-propagation queue, shared by pointer across all WithSession
	// views so a propagation queued through one session is visible to — and
	// drainable by — every other (see deferred.go).
	pend *pendState
}

// Option configures a Manager.
type Option func(*Manager)

// WithInlineMax sets the link-inlining threshold of §4.3.1: link structures
// with at most n referrers are stored inline in the owning object instead of
// as a separate link object. n = 0 disables inlining. The default is 1,
// which is space-neutral (one inline OID costs the same as a link OID).
func WithInlineMax(n int) Option { return func(m *Manager) { m.inlineMax = n } }

// New returns a Manager.
func New(cat *catalog.Catalog, st Storage, opts ...Option) *Manager {
	m := &Manager{cat: cat, st: st, inlineMax: 1, pend: &pendState{}}
	for _, o := range opts {
		o(m)
	}
	return m
}

// WithSession returns a view of the manager bound to a per-session Storage
// and Listener (the engine's fine-grained transaction or snapshot-read
// session), sharing the catalog, inlining threshold, and deferred queue with
// the parent. The view is cheap and need not be released.
func (m *Manager) WithSession(st Storage, l Listener) *Manager {
	v := *m
	v.st = st
	v.listener = l
	return &v
}

// ErrStillReferenced is returned when deleting an object that is still the
// target of replication-path references. The paper assumes such deletions
// cannot happen (§4.1.1); the manager enforces it.
var ErrStillReferenced = errors.New("core: object is still referenced by a replication path")

func (m *Manager) notify(source pagefile.OID, p *catalog.Path, f catalog.ReplField, old, new schema.Value) {
	if m.listener != nil && !old.Equal(new) {
		m.listener.HiddenChanged(source, p, f, old, new)
	}
}

// linkStore returns the link-object store for l.
func (m *Manager) linkStore(l *catalog.Link) (*links.Store, error) {
	f, err := m.st.LinkFile(l)
	if err != nil {
		return nil, err
	}
	return links.NewStore(f), nil
}

// refValue extracts the named reference attribute from o.
func refValue(o *schema.Object, field string) (pagefile.OID, error) {
	v, ok := o.Get(field)
	if !ok {
		return pagefile.OID{}, fmt.Errorf("core: type %s has no field %q", o.Type.Name, field)
	}
	if v.Kind != schema.KindRef {
		return pagefile.OID{}, fmt.Errorf("core: field %s.%s is not a reference", o.Type.Name, field)
	}
	return v.R, nil
}
