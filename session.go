package fieldrepl

import (
	"context"
	"fmt"
	"sync"

	"github.com/exodb/fieldrepl/internal/extra"
	"github.com/exodb/fieldrepl/internal/obs"
)

// Session is one client's surface-language execution context: its own
// variable bindings (let x = insert ...), its own open transaction (begin
// ... commit), and its own trace attribution. Sessions are independent —
// statements from concurrent sessions interleave under the engine's
// fine-grained locks (reads on the snapshot path, DML on per-set locks),
// never behind one another's scripts. A Session serializes its own
// statements internally, so sharing one across goroutines is safe but
// pointless; give each client its own.
type Session struct {
	origin string

	mu     sync.Mutex
	in     *extra.Interp
	closed bool
}

// NewSession creates an independent surface-language session. Sessions are
// cheap; the network server creates one per connection. Close a session when
// done — an open transaction is rolled back.
func (db *DB) NewSession() *Session {
	return &Session{
		origin: fmt.Sprintf("sess-%d", db.nextSess.Add(1)),
		in:     extra.NewInterp(db.e),
	}
}

// Origin returns the session's trace-attribution label ("sess-N"): every
// trace produced by the session's statements carries it, so slow-query logs
// and /debug/traces attribute work to the session that ran it.
func (s *Session) Origin() string { return s.origin }

// Exec runs a script in the EXTRA-style surface language, returning one
// Output per statement. See DB.Exec for the statement repertoire and locking
// behavior.
func (s *Session) Exec(script string) ([]Output, error) {
	return s.ExecCtx(nil, script)
}

// ExecCtx is Exec under a context: cancellation is checked between
// statements, at page boundaries inside queries, and in per-set lock waits, so
// a disconnecting client's statement stops fetching pages promptly. A nil ctx
// behaves like Exec.
func (s *Session) ExecCtx(ctx context.Context, script string) ([]Output, error) {
	outs, err := s.execRaw(ctx, script)
	converted := make([]Output, len(outs))
	for i, o := range outs {
		converted[i] = Output{Message: o.Message, Columns: o.Columns, Rows: o.Rows, OID: OID{inner: o.OID}, Plan: o.Plan}
		if o.Decision != nil {
			converted[i].Plan = o.Decision.Render()
		}
	}
	return converted, err
}

// ExecOne runs a single-statement script.
func (s *Session) ExecOne(stmt string) (Output, error) {
	outs, err := s.ExecCtx(nil, stmt)
	if err != nil {
		return Output{}, err
	}
	if len(outs) != 1 {
		return Output{}, fmt.Errorf("fieldrepl: expected one statement, got %d", len(outs))
	}
	return outs[0], nil
}

// Close ends the session, rolling back an open transaction. Statements after
// Close fail with ErrSessionClosed. Closing twice is a no-op.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.in.Close()
}

// execRaw runs the script through the interpreter under the session's
// lock and origin; the engine takes the locks each statement needs (a
// retrieve runs on the snapshot read path, DML under its footprint's per-set
// locks, schema statements under the exclusive lock). Internal so the
// network server can reuse it without converting outputs twice.
func (s *Session) execRaw(ctx context.Context, script string) ([]extra.Output, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, extra.ErrSessionClosed
	}
	return s.in.ExecCtx(obs.WithOrigin(ctx, s.origin), script)
}
