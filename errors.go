package fieldrepl

import (
	"github.com/exodb/fieldrepl/internal/core"
	"github.com/exodb/fieldrepl/internal/engine"
	"github.com/exodb/fieldrepl/internal/extra"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/repl"
	"github.com/exodb/fieldrepl/internal/schema"
)

// Exported error sentinels. Every layer wraps these with %w, so callers
// classify failures with errors.Is regardless of how much context the error
// chain has accumulated:
//
//	if errors.Is(err, fieldrepl.ErrTxnDone) { ... }
//
// See docs/errors.md for the full failure-mode contract (clean refusals,
// rolled-back statements, loud inconsistencies, and the repair lifecycle).
var (
	// ErrNoSuchSet: an operation named a set that does not exist.
	ErrNoSuchSet = engine.ErrNoSuchSet
	// ErrTxnDone: a statement on a transaction that already committed,
	// rolled back, or aborted.
	ErrTxnDone = engine.ErrTxnDone
	// ErrWriteConflict: a transaction touched state outside its declared
	// footprint (BeginSets) — a mutation on an undeclared set, a query that
	// would drain deferred propagation for one — or a per-set lock wait was
	// cancelled by the context. The statement or transaction is rolled back;
	// retry with the right footprint (or Begin, which declares every set).
	ErrWriteConflict = engine.ErrWriteConflict
	// ErrTypeMismatch: a value's kind does not match the field it is
	// assigned to.
	ErrTypeMismatch = schema.ErrTypeMismatch
	// ErrCorruptPage: a page read back from disk failed its checksum — the
	// medium's data is damaged (torn write, bit rot, external modification).
	ErrCorruptPage = pagefile.ErrCorruptPage
	// ErrNotFound: no record at that OID (deleted, or never existed).
	ErrNotFound = heap.ErrNotFound
	// ErrStillReferenced: a delete was refused because replication paths
	// still reach the object. Raised before any mutation.
	ErrStillReferenced = core.ErrStillReferenced
	// ErrPathInUse: Unreplicate refused because an index is built on the
	// path; drop the index first.
	ErrPathInUse = core.ErrPathInUse
	// ErrNotPrimary: a write operation on a read-only follower replica.
	// Followers accept writes only after Promote.
	ErrNotPrimary = engine.ErrNotPrimary
	// ErrNotFollower: Promote on a database that is not a follower.
	ErrNotFollower = engine.ErrNotFollower
	// ErrFollowerLagged: Promote refused because the follower is still
	// connected to a live primary and behind it — promoting now would fork
	// the replication history. Retry once caught up, or after the primary is
	// truly gone (the session drops).
	ErrFollowerLagged = repl.ErrFollowerLagged
	// ErrSessionClosed: a statement on a Session (or network connection)
	// after Close. The session's open transaction, if any, was rolled back.
	ErrSessionClosed = extra.ErrSessionClosed
)
