package fieldrepl

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"github.com/exodb/fieldrepl/internal/extra"
	"github.com/exodb/fieldrepl/internal/server"
)

// ErrTooManyConnections: the query server refused a connection because
// ServerConfig.MaxConns sessions are already open. Back off and retry.
var ErrTooManyConnections = server.ErrTooManyConnections

// ServerConfig tunes the query server started by DB.Serve. The zero value
// means 1024 concurrent connections and a 5-minute idle timeout.
type ServerConfig struct {
	// MaxConns caps concurrently open client connections (native and HTTP
	// together); beyond it connections are refused with
	// ErrTooManyConnections. Default 1024; negative means unlimited.
	MaxConns int
	// IdleTimeout closes a connection that sends nothing for this long
	// between requests. Default 5m; negative means no timeout.
	IdleTimeout time.Duration
}

// ServerStats is a snapshot of the query server's connection accounting.
type ServerStats struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Active   int64 `json:"active"`
}

// Server is a running query server started by DB.Serve.
type Server struct{ s *server.Server }

// Addr returns the server's listen address (useful with ":0").
func (s *Server) Addr() string { return s.s.Addr() }

// Stats returns the connection accounting snapshot.
func (s *Server) Stats() ServerStats {
	st := s.s.Stats()
	return ServerStats{Accepted: st.Accepted, Rejected: st.Rejected, Active: st.Active}
}

// Close stops the server: the listener closes, in-flight statements are
// cancelled, and every client connection is closed. The database itself is
// unaffected.
func (s *Server) Close() error { return s.s.Close() }

// Serve starts a query server on addr (e.g. ":7070", or ":0" to pick a free
// port) executing EXTRA surface-language statements from network clients.
// One port speaks two protocols: the native binary protocol (the client
// package; one Session per connection, so bindings and transactions persist
// across requests) and HTTP — JSON statements (POST /exec with
// {"script": "..."}; one session per request), GET /stats, and
// MetricsHandler's telemetry routes (/metrics, /advisor, /debug/*,
// /replication). Each session's statements run under the
// fine-grained locking Exec uses — concurrent read-only clients never queue
// behind writers — and its traces carry the session's origin label for
// slow-query attribution. The server runs until Close; see docs/server.md.
func (db *DB) Serve(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := server.Serve(ln, dbBackend{db: db}, server.Config{
		MaxConns: cfg.MaxConns, IdleTimeout: cfg.IdleTimeout,
	})
	return &Server{s: srv}, nil
}

// dbBackend adapts a DB to the network layer's Backend interface.
type dbBackend struct{ db *DB }

func (b dbBackend) NewSession() server.Session {
	return sessAdapter{s: b.db.NewSession()}
}

func (b dbBackend) Handler() http.Handler { return b.db.MetricsHandler() }

type sessAdapter struct{ s *Session }

func (a sessAdapter) Origin() string { return a.s.Origin() }
func (a sessAdapter) Close() error   { return a.s.Close() }

func (a sessAdapter) Exec(ctx context.Context, script string) ([]server.Result, error) {
	outs, err := a.s.execRaw(ctx, script)
	rs := make([]server.Result, len(outs))
	for i, o := range outs {
		rs[i] = server.Result{Message: o.Message, Columns: o.Columns, Rows: o.Rows, Plan: o.Plan}
		if !o.OID.IsNil() {
			rs[i].OID = o.OID.String()
		}
	}
	if errors.Is(err, extra.ErrSessionClosed) {
		err = codedError{err: err, code: server.ErrCodeSessionDone}
	}
	return rs, err
}

// codedError tags a backend error with its wire error code.
type codedError struct {
	err  error
	code byte
}

func (e codedError) Error() string  { return e.err.Error() }
func (e codedError) Unwrap() error  { return e.err }
func (e codedError) WireCode() byte { return e.code }
