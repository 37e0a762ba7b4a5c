package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTooManyConnections: the server refused a connection because MaxConns
// sessions are already open. The refusal is polite — native clients get a
// coded Error frame, HTTP clients a 503 — so callers can back off and retry.
var ErrTooManyConnections = errors.New("server: too many connections")

// Backend is what the server serves: a factory for independent statement
// sessions. The root fieldrepl package adapts its DB to this.
type Backend interface {
	NewSession() Session
}

// Session executes surface-language scripts for one client. The server
// calls Exec serially per session and Close exactly once when the client
// goes away.
type Session interface {
	// Exec runs a script, honoring ctx cancellation (the server cancels it
	// when the client disconnects mid-statement or the server shuts down).
	Exec(ctx context.Context, script string) ([]Result, error)
	// Origin is the session's trace-attribution label, announced to native
	// clients in the Hello frame.
	Origin() string
	Close() error
}

// WireCoder lets a backend error choose its MsgError code; errors without
// it are sent as ErrCodeGeneric.
type WireCoder interface{ WireCode() byte }

// Config tunes the server. The zero value means 1024 connections and a
// 5-minute idle timeout.
type Config struct {
	// MaxConns caps concurrently open client connections (native and HTTP
	// together). Connections beyond it are refused with
	// ErrTooManyConnections. Default 1024; negative means unlimited.
	MaxConns int
	// IdleTimeout closes a native connection that sends nothing for this
	// long between requests, and bounds HTTP keep-alive idleness. Default
	// 5m; negative means no timeout.
	IdleTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConns == 0 {
		c.MaxConns = 1024
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	return c
}

// Stats is a snapshot of the server's connection accounting.
type Stats struct {
	// Accepted counts every connection the listener handed us; Rejected the
	// subset refused over MaxConns; Active the currently open ones.
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Active   int64 `json:"active"`
}

// Server accepts client connections and executes their statements against a
// Backend. Start one with Serve; stop it with Close.
type Server struct {
	backend Backend
	cfg     Config
	ln      net.Listener

	httpLn  *chanListener
	httpSrv *http.Server

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup

	accepted atomic.Int64
	rejected atomic.Int64
	active   atomic.Int64
}

// Serve starts serving clients that connect on ln and returns immediately;
// the server runs until Close. One listener serves both protocols (native
// connections open with the "XDB1" magic, everything else is HTTP).
func Serve(ln net.Listener, backend Backend, cfg Config) *Server {
	s := &Server{
		backend: backend,
		cfg:     cfg.withDefaults(),
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.httpLn = newChanListener(ln.Addr())
	s.httpSrv = &http.Server{
		Handler:           s.httpHandler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if s.cfg.IdleTimeout > 0 {
		s.httpSrv.IdleTimeout = s.cfg.IdleTimeout
	}
	s.wg.Add(2)
	go func() { defer s.wg.Done(); _ = s.httpSrv.Serve(s.httpLn) }()
	go s.acceptLoop()
	return s
}

// Addr returns the listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns the connection accounting snapshot.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted: s.accepted.Load(),
		Rejected: s.rejected.Load(),
		Active:   s.active.Load(),
	}
}

// Close stops the server: the listener closes, in-flight statements are
// cancelled, and every client connection is closed. Close blocks until the
// connection handlers have exited.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.cancel()
	_ = s.httpSrv.Close()
	s.httpLn.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.accepted.Add(1)
		if !s.track(conn) {
			_ = conn.Close()
			continue
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// track registers a connection for Close-time teardown; false means the
// server is already closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.active.Add(1)
	return true
}

func (s *Server) release(conn net.Conn) {
	s.mu.Lock()
	if _, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		s.active.Add(-1)
	}
	s.mu.Unlock()
}

// handleConn sniffs the protocol and dispatches. The connection-limit check
// happens after the sniff so the refusal can speak the client's protocol.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	first, err := br.Peek(len(Magic))
	if err != nil {
		s.release(conn)
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	native := string(first) == Magic
	over := s.cfg.MaxConns >= 0 && s.active.Load() > int64(s.cfg.MaxConns)
	if over {
		s.rejected.Add(1)
		_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if native {
			_ = WriteFrame(conn, MsgError, EncodeError(ErrCodeTooManyConns, ErrTooManyConnections.Error()))
		} else {
			const body = "{\"error\":\"too many connections\"}\n"
			fmt.Fprintf(conn, "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		}
		s.release(conn)
		_ = conn.Close()
		return
	}
	if native {
		_, _ = br.Discard(len(Magic))
		defer s.release(conn)
		s.serveNative(conn, br) // closes conn
		return
	}
	// HTTP: replay the sniffed bytes and hand the connection to the HTTP
	// server; its Close (driven by net/http) releases the slot.
	cc := &countedConn{Conn: &sniffConn{Conn: conn, r: br}, release: func() { s.release(conn) }}
	if !s.httpLn.push(cc) {
		s.release(conn)
		_ = conn.Close()
	}
}

// frame is one native-protocol message, as the connection reader hands it
// to the serving loop.
type frame struct {
	typ     byte
	payload []byte
}

// serveNative runs the binary protocol for one connection: Hello, then a
// request/response loop with one Session for the connection's lifetime.
//
// A reader goroutine owns the read side for the connection's lifetime. It
// hands each frame to the loop over an unbuffered channel, so a pipelined
// frame waits its turn and frames are served in order. A read error (the
// client closed or reset the connection) cancels the connection's context,
// which cancels the statement in flight. The idle timer runs only while the
// loop waits for a frame, never while a statement runs.
func (s *Server) serveNative(conn net.Conn, br *bufio.Reader) {
	sess := s.backend.NewSession()
	defer sess.Close()
	bw := bufio.NewWriter(conn)
	if WriteFrame(bw, MsgHello, []byte(sess.Origin())) != nil || bw.Flush() != nil {
		_ = conn.Close()
		return
	}

	ctx, cancel := context.WithCancel(s.ctx)
	frames := make(chan frame)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer cancel()
		for {
			typ, payload, err := ReadFrame(br)
			if err != nil {
				return
			}
			select {
			case frames <- frame{typ: typ, payload: payload}:
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() {
		cancel()
		_ = conn.Close() // ends the reader's blocked read
		<-readerDone
	}()

	var idle <-chan time.Time
	var timer *time.Timer
	if s.cfg.IdleTimeout > 0 {
		timer = time.NewTimer(s.cfg.IdleTimeout)
		defer timer.Stop()
		idle = timer.C
	}
	for {
		var f frame
		select {
		case f = <-frames:
		case <-idle:
			return
		case <-ctx.Done():
			return
		}
		if timer != nil && !timer.Stop() {
			// Fired while the frame was on its way: drain it, or the stale
			// tick would end the next wait at once. go.mod's go 1.22 keeps
			// the buffered timer channel, where the tick is already there.
			select {
			case <-timer.C:
			default:
			}
		}
		var err error
		switch f.typ {
		case MsgPing:
			err = WriteFrame(bw, MsgPong, nil)
		case MsgBye:
			return
		case MsgExec:
			rs, execErr := sess.Exec(ctx, string(f.payload))
			if ctx.Err() != nil {
				return // the client is gone or the server is closing
			}
			if execErr != nil {
				err = WriteFrame(bw, MsgError, EncodeError(codeOf(execErr), execErr.Error()))
			} else {
				err = WriteFrame(bw, MsgResult, EncodeResults(rs))
			}
		default:
			_ = WriteFrame(bw, MsgError, EncodeError(ErrCodeGeneric, fmt.Sprintf("unknown message type 0x%02x", f.typ)))
			_ = bw.Flush()
			return
		}
		if err != nil || bw.Flush() != nil {
			return
		}
		if timer != nil {
			timer.Reset(s.cfg.IdleTimeout)
		}
	}
}

func codeOf(err error) byte {
	var wc WireCoder
	if errors.As(err, &wc) {
		return wc.WireCode()
	}
	return ErrCodeGeneric
}

// sniffConn replays bytes buffered during the protocol sniff.
type sniffConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *sniffConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// countedConn releases the server's connection slot exactly once on Close.
type countedConn struct {
	net.Conn
	release func()
	once    sync.Once
}

func (c *countedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.release)
	return err
}

// chanListener feeds sniffed HTTP connections to net/http's Serve loop.
type chanListener struct {
	addr net.Addr
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newChanListener(addr net.Addr) *chanListener {
	return &chanListener{addr: addr, ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *chanListener) push(c net.Conn) bool {
	select {
	case l.ch <- c:
		return true
	case <-l.done:
		return false
	}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return l.addr }
