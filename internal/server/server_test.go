package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend scripts Session.Exec behavior so protocol handling is tested
// without a database.
type fakeBackend struct {
	exec   func(ctx context.Context, script string) ([]Result, error)
	sess   atomic.Int64
	closed atomic.Int64
}

type fakeSession struct {
	b      *fakeBackend
	origin string
}

func (b *fakeBackend) NewSession() Session {
	return &fakeSession{b: b, origin: fmt.Sprintf("sess-%d", b.sess.Add(1))}
}

func (s *fakeSession) Exec(ctx context.Context, script string) ([]Result, error) {
	if s.b.exec != nil {
		return s.b.exec(ctx, script)
	}
	return []Result{{Message: "ok: " + script}}, nil
}

func (s *fakeSession) Origin() string { return s.origin }
func (s *fakeSession) Close() error   { s.b.closed.Add(1); return nil }

func startServer(t *testing.T, b Backend, cfg Config) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, b, cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

// dialNative opens a native connection past the magic/hello handshake.
func dialNative(t *testing.T, addr string) (net.Conn, *bufio.Reader, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	typ, payload, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if typ == MsgError {
		code, msg := DecodeError(payload)
		t.Fatalf("handshake refused: code %d %q", code, msg)
	}
	if typ != MsgHello {
		t.Fatalf("expected hello, got 0x%02x", typ)
	}
	return conn, br, string(payload)
}

func TestResultsRoundTrip(t *testing.T) {
	in := []Result{
		{Message: "created"},
		{Columns: []string{"name", "floor"}, Rows: [][]string{{"alice", "3"}, {"bob", ""}}},
		{OID: "1:2:3"},
		{},
	}
	out, err := DecodeResults(EncodeResults(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d results, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i].Message != out[i].Message || in[i].OID != out[i].OID ||
			!reflect.DeepEqual(in[i].Columns, out[i].Columns) || !reflect.DeepEqual(in[i].Rows, out[i].Rows) {
			t.Fatalf("result %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestDecodeResultsTruncated(t *testing.T) {
	enc := EncodeResults([]Result{{Message: "hello", Columns: []string{"a"}}})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeResults(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestNativeExecPingBye(t *testing.T) {
	b := &fakeBackend{}
	s := startServer(t, b, Config{})
	conn, br, origin := dialNative(t, s.Addr())
	if !strings.HasPrefix(origin, "sess-") {
		t.Fatalf("origin %q", origin)
	}

	if err := WriteFrame(conn, MsgExec, []byte("retrieve x")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgResult {
		t.Fatalf("expected result, got 0x%02x", typ)
	}
	rs, err := DecodeResults(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Message != "ok: retrieve x" {
		t.Fatalf("results %+v", rs)
	}

	if err := WriteFrame(conn, MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err = ReadFrame(br); err != nil || typ != MsgPong {
		t.Fatalf("ping: typ 0x%02x err %v", typ, err)
	}

	if err := WriteFrame(conn, MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("connection still open after bye")
	}
	waitFor(t, func() bool { return b.closed.Load() == 1 })
}

func TestNativeExecError(t *testing.T) {
	b := &fakeBackend{exec: func(ctx context.Context, script string) ([]Result, error) {
		return nil, fmt.Errorf("no such set %q", script)
	}}
	s := startServer(t, b, Config{})
	conn, br, _ := dialNative(t, s.Addr())
	if err := WriteFrame(conn, MsgExec, []byte("Emp")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError {
		t.Fatalf("expected error frame, got 0x%02x", typ)
	}
	code, msg := DecodeError(payload)
	if code != ErrCodeGeneric || !strings.Contains(msg, "no such set") {
		t.Fatalf("code %d msg %q", code, msg)
	}
	// The session survives a failed statement.
	if err := WriteFrame(conn, MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := ReadFrame(br); err != nil || typ != MsgPong {
		t.Fatalf("after error: typ 0x%02x err %v", typ, err)
	}
}

func TestConnectionLimitNative(t *testing.T) {
	b := &fakeBackend{}
	s := startServer(t, b, Config{MaxConns: 1})
	_, _, _ = dialNative(t, s.Addr())

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError {
		t.Fatalf("expected refusal, got 0x%02x", typ)
	}
	if code, _ := DecodeError(payload); code != ErrCodeTooManyConns {
		t.Fatalf("code %d", code)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestConnectionLimitHTTP(t *testing.T) {
	b := &fakeBackend{}
	s := startServer(t, b, Config{MaxConns: 1})
	_, _, _ = dialNative(t, s.Addr())

	resp, err := http.Post("http://"+s.Addr()+"/exec", "application/json", strings.NewReader(`{"script":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHTTPExec(t *testing.T) {
	b := &fakeBackend{}
	s := startServer(t, b, Config{})
	resp, err := http.Post("http://"+s.Addr()+"/exec", "application/json", strings.NewReader(`{"script":"retrieve y"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var er ExecResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if len(er.Results) != 1 || er.Results[0].Message != "ok: retrieve y" {
		t.Fatalf("response %+v", er)
	}
	// HTTP sessions are one-shot: session was closed after the request.
	waitFor(t, func() bool { return b.closed.Load() == 1 })

	resp2, err := http.Get("http://" + s.Addr() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted < 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDisconnectCancelsExec(t *testing.T) {
	started := make(chan struct{})
	cancelled := make(chan error, 1)
	b := &fakeBackend{exec: func(ctx context.Context, script string) ([]Result, error) {
		close(started)
		select {
		case <-ctx.Done():
			cancelled <- ctx.Err()
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			cancelled <- nil
			return nil, nil
		}
	}}
	s := startServer(t, b, Config{})
	conn, _, _ := dialNative(t, s.Addr())
	if err := WriteFrame(conn, MsgExec, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	<-started
	conn.Close() // client vanishes mid-statement
	select {
	case err := <-cancelled:
		if err == nil {
			t.Fatal("exec finished without cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("exec not cancelled after disconnect")
	}
	waitFor(t, func() bool { return b.closed.Load() == 1 })
}

func TestPipelinedFrameNotSwallowedByWatchdog(t *testing.T) {
	release := make(chan struct{})
	b := &fakeBackend{exec: func(ctx context.Context, script string) ([]Result, error) {
		if script == "slow" {
			<-release
		}
		return []Result{{Message: script}}, nil
	}}
	s := startServer(t, b, Config{})
	conn, br, _ := dialNative(t, s.Addr())
	// Send a second Exec while the first is still running: the connection
	// reader holds it until the serving loop has answered the first.
	if err := WriteFrame(conn, MsgExec, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, MsgExec, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	for _, want := range []string{"slow", "fast"} {
		typ, payload, err := ReadFrame(br)
		if err != nil || typ != MsgResult {
			t.Fatalf("typ 0x%02x err %v", typ, err)
		}
		rs, err := DecodeResults(payload)
		if err != nil || len(rs) != 1 || rs[0].Message != want {
			t.Fatalf("rs %+v err %v, want message %q", rs, err, want)
		}
	}
}

func TestIdleTimeout(t *testing.T) {
	b := &fakeBackend{}
	s := startServer(t, b, Config{IdleTimeout: 100 * time.Millisecond})
	conn, br, _ := dialNative(t, s.Addr())
	_ = conn
	start := time.Now()
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("idle connection not closed")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("idle close took too long")
	}
	waitFor(t, func() bool { return b.closed.Load() == 1 })
}

// A statement running longer than the idle timeout is answered, and the
// timer, stopped while it ran, neither closes the connection before the next
// statement nor stays disarmed after it.
func TestLongStatementOutlivesIdleTimeout(t *testing.T) {
	const idle = 100 * time.Millisecond
	b := &fakeBackend{exec: func(ctx context.Context, script string) ([]Result, error) {
		if script == "slow" {
			time.Sleep(3 * idle)
		}
		return []Result{{Message: script}}, nil
	}}
	s := startServer(t, b, Config{IdleTimeout: idle})
	conn, br, _ := dialNative(t, s.Addr())
	for _, script := range []string{"slow", "fast"} {
		if err := WriteFrame(conn, MsgExec, []byte(script)); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadFrame(br)
		if err != nil || typ != MsgResult {
			t.Fatalf("%s: typ 0x%02x err %v", script, typ, err)
		}
		if rs, err := DecodeResults(payload); err != nil || len(rs) != 1 || rs[0].Message != script {
			t.Fatalf("%s: rs %+v err %v", script, rs, err)
		}
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("idle connection not closed after the statements")
	}
	waitFor(t, func() bool { return b.closed.Load() == 1 })
}

// Close ends every connection's reader goroutine: the goroutine count falls
// back to what it was before the server started.
func TestCloseLeavesNoConnectionReaders(t *testing.T) {
	base := runtime.NumGoroutine()
	b := &fakeBackend{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, b, Config{})
	for i := 0; i < 3; i++ {
		conn, br, _ := dialNative(t, s.Addr())
		if err := WriteFrame(conn, MsgExec, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := ReadFrame(br); err != nil || typ != MsgResult {
			t.Fatalf("typ 0x%02x err %v", typ, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base })
	if n := b.closed.Load(); n != 3 {
		t.Fatalf("%d sessions closed, want 3", n)
	}
}

func TestCloseCancelsInFlight(t *testing.T) {
	started := make(chan struct{})
	b := &fakeBackend{exec: func(ctx context.Context, script string) ([]Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	s := startServer(t, b, Config{})
	conn, _, _ := dialNative(t, s.Addr())
	if err := WriteFrame(conn, MsgExec, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	<-started
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on in-flight statement")
	}
	if st := s.Stats(); st.Active != 0 {
		t.Fatalf("active %d after Close", st.Active)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}
