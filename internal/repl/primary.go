package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exodb/fieldrepl/internal/wal"
)

// Config tunes the primary side of replication. The zero value gets sensible
// defaults from fill().
type Config struct {
	// Heartbeat is how often an idle stream sends MsgHeartbeat (default 1s).
	Heartbeat time.Duration
	// BatchBytes bounds one MsgRecords payload (default 256 KiB, clamped to
	// half the wire protocol's payload limit so a batch can never exceed
	// what the follower will accept).
	BatchBytes int
	// WriteTimeout is the per-message send deadline; a follower that cannot
	// drain its socket within it is dropped rather than ever blocking the
	// primary (default 10s). This is the bounded-send-buffer guarantee.
	WriteTimeout time.Duration
	// MinSyncFollowers is the semi-synchronous bar: commits wait until this
	// many followers have durably acked their LSN. 0 (the default) is fully
	// asynchronous.
	MinSyncFollowers int
	// SyncTimeout bounds a semi-sync wait; on expiry the commit proceeds
	// asynchronously and the degradation is counted (default 5s).
	SyncTimeout time.Duration
	// RetainBytes bounds how large the WAL may grow on behalf of a lagging
	// follower before checkpoints truncate anyway, forcing that follower into
	// a full resync (default 64 MiB, 0 keeps the default; -1 = unbounded).
	RetainBytes int64
}

func (c *Config) fill() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 256 << 10
	}
	// The follower rejects any envelope above maxPayload before reading it,
	// and the log's tail reader may overshoot the byte budget by one frame.
	// An unclamped BatchBytes would livelock the stream: every oversized
	// batch rejected, the follower reconnecting and re-receiving it forever.
	if c.BatchBytes > maxPayload/2 {
		c.BatchBytes = maxPayload / 2
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 5 * time.Second
	}
	if c.RetainBytes == 0 {
		c.RetainBytes = 64 << 20
	}
}

// Primary ships the WAL to connected followers. It is constructed by the
// engine (which supplies the log and the snapshot callback) and fed a
// listener via Serve.
type Primary struct {
	log  *wal.Manager
	snap func() (*Snapshot, error)
	cfg  Config

	mu        sync.Mutex
	ln        net.Listener
	followers map[int64]*followerConn
	nextID    int64
	closed    bool
	// ackNotify is closed and replaced whenever any follower's acked LSN
	// advances or the follower set changes, waking semi-sync waiters.
	ackNotify chan struct{}

	wg sync.WaitGroup

	// retainSet records that Serve registered the WAL retain hook, so Close
	// only unregisters a hook this Primary actually owns.
	retainSet atomic.Bool

	syncTimeouts atomic.Int64 // semi-sync waits that degraded to async
	unreplicated atomic.Int64 // semi-sync commits acked with no follower connected
	resyncs      atomic.Int64 // followers sent back for a full snapshot
	snapshots    atomic.Int64 // snapshots shipped
}

// followerConn is the primary's view of one connected follower.
type followerConn struct {
	id    int64
	addr  string
	conn  net.Conn
	acked atomic.Uint64 // last LSN the follower has durably applied
	sent  atomic.Uint64 // last LSN shipped to it
	since time.Time
	// behindSince is the unix-nano instant the follower first fell behind
	// (records sent and not yet fully acked), 0 while caught up. The shipping
	// loop arms it (CAS so only the first unacked batch sets the epoch); the
	// ack goroutine clears it when acks cover the durable frontier. Status
	// turns it into a milliseconds-behind gauge.
	behindSince atomic.Int64
}

// NewPrimary wires a shipper to the log. snap must return a consistent
// snapshot of the store at a known LSN with the log quiescent (the engine
// takes it under its writer lock). Construction touches nothing shared: the
// WAL retain interlock is registered by Serve and released by Close, so a
// Primary that is built but never serves (a second ServeReplication call
// losing the registration race) cannot disturb the active shipper's hook.
func NewPrimary(log *wal.Manager, snap func() (*Snapshot, error), cfg Config) *Primary {
	cfg.fill()
	return &Primary{
		log:       log,
		snap:      snap,
		cfg:       cfg,
		followers: make(map[int64]*followerConn),
		ackNotify: make(chan struct{}),
	}
}

// minNeeded is the WAL retain hook: the minimum LSN a connected follower
// still needs, ok=false when no follower is connected.
func (p *Primary) minNeeded() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	min, ok := uint64(0), false
	for _, fc := range p.followers {
		if a := fc.acked.Load(); !ok || a < min {
			min, ok = a, true
		}
	}
	return min, ok
}

// Serve accepts follower connections on ln until Close. It returns
// immediately; connection handling runs in background goroutines. The WAL
// retain interlock is registered here, before the first follower can
// connect.
func (p *Primary) Serve(ln net.Listener) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return
	}
	p.ln = ln
	p.mu.Unlock()
	// Register outside p.mu: Checkpoint calls the hook with the wal lock
	// held and the hook takes p.mu, so holding p.mu across SetRetain would
	// invert that order. A Close racing this registration is handled by the
	// re-check below (both sides may clear the hook; clearing is idempotent).
	retainBytes := p.cfg.RetainBytes
	if retainBytes < 0 {
		retainBytes = 0 // wal treats 0 as unbounded
	}
	p.log.SetRetain(p.minNeeded, retainBytes)
	p.retainSet.Store(true)
	if p.isClosed() {
		p.log.SetRetain(nil, 0)
		ln.Close()
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.handle(conn)
			}()
		}
	}()
}

// Close stops the listener, drops every follower, and unregisters the WAL
// retain hook (if Serve registered it) so checkpoints truncate freely again.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	ln := p.ln
	conns := make([]net.Conn, 0, len(p.followers))
	for _, fc := range p.followers {
		conns = append(conns, fc.conn)
	}
	close(p.ackNotify)
	p.ackNotify = make(chan struct{})
	p.mu.Unlock()

	if p.retainSet.Load() {
		p.log.SetRetain(nil, 0)
	}
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

// handle runs one follower connection: handshake, optional snapshot, then
// the shipping loop. Any error drops the connection; the follower owns
// reconnection.
func (p *Primary) handle(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(p.cfg.WriteTimeout))
	typ, payload, err := readMsg(conn)
	if err != nil || typ != MsgHello || len(payload) < 16 {
		return
	}
	magic := binary.LittleEndian.Uint32(payload)
	version := binary.LittleEndian.Uint32(payload[4:])
	lastLSN, _ := u64(payload[8:])
	if magic != protoMagic || version != protoVersion {
		p.deny(conn, fmt.Sprintf("protocol mismatch (magic %#x version %d)", magic, version))
		return
	}
	conn.SetReadDeadline(time.Time{})

	// Register before any snapshot or streaming: from this moment the
	// follower holds the WAL truncation interlock and counts for semi-sync
	// waits, which is what makes promotion lossless — every commit acked
	// after this point is either ≤ the snapshot LSN (inside the snapshot) or
	// waited for this follower's ack.
	fc := &followerConn{addr: conn.RemoteAddr().String(), conn: conn, since: time.Now()}
	fc.acked.Store(lastLSN)
	if !p.register(fc) {
		p.deny(conn, "primary closed")
		return
	}
	defer p.unregister(fc)

	startLSN := lastLSN
	if lastLSN+1 < p.log.BaseLSN() {
		// The follower's resume point predates the log: ship a full snapshot.
		snap, err := p.snap()
		if err != nil {
			p.deny(conn, fmt.Sprintf("snapshot: %v", err))
			return
		}
		p.snapshots.Add(1)
		conn.SetWriteDeadline(time.Now().Add(10 * p.cfg.WriteTimeout))
		if err := sendSnapshot(conn, snap); err != nil {
			return
		}
		startLSN = snap.LSN
	}

	// Acks arrive on their own goroutine so a shipping stall never delays
	// lag accounting, and vice versa.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			typ, payload, err := readMsg(conn)
			if err != nil {
				conn.Close() // wake the shipping loop
				return
			}
			if typ != MsgAck {
				continue
			}
			if lsn, err := u64(payload); err == nil && lsn > fc.acked.Load() {
				fc.acked.Store(lsn)
				if lsn >= p.log.DurableLSN() {
					fc.behindSince.Store(0)
				}
				p.broadcastAcks()
			}
		}
	}()

	p.ship(fc, startLSN)
	conn.Close()
	<-ackDone
}

// ship streams records after startLSN until the connection or log dies.
func (p *Primary) ship(fc *followerConn, startLSN uint64) {
	conn := fc.conn
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	if err := writeMsg(conn, MsgStreamBegin, putU64(startLSN)); err != nil {
		return
	}
	cur := p.log.CursorAt(startLSN)
	fc.sent.Store(startLSN)
	for {
		batch, err := p.log.ReadTail(&cur, p.cfg.BatchBytes)
		if err != nil {
			if errors.Is(err, wal.ErrTruncated) {
				// A forced checkpoint truncated past this follower: it must
				// full-resync. Tell it why and let it reconnect.
				p.resyncs.Add(1)
				p.deny(conn, ReasonResync)
			}
			return
		}
		if len(batch) > 0 {
			payload := append(putU64(cur.LSN), batch...)
			conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
			if err := writeMsg(conn, MsgRecords, payload); err != nil {
				return
			}
			fc.sent.Store(cur.LSN)
			fc.behindSince.CompareAndSwap(0, time.Now().UnixNano())
			continue
		}
		// Caught up: sleep until more log is durable or the heartbeat is due.
		if d := p.log.WaitDurableAbove(cur.LSN, p.cfg.Heartbeat); d <= cur.LSN {
			conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
			if err := writeMsg(conn, MsgHeartbeat, putU64(d)); err != nil {
				return
			}
		}
		if p.isClosed() {
			return
		}
	}
}

func (p *Primary) deny(conn net.Conn, reason string) {
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	_ = writeMsg(conn, MsgDeny, []byte(reason))
}

func (p *Primary) register(fc *followerConn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.nextID++
	fc.id = p.nextID
	p.followers[fc.id] = fc
	return true
}

func (p *Primary) unregister(fc *followerConn) {
	p.mu.Lock()
	delete(p.followers, fc.id)
	p.mu.Unlock()
	p.broadcastAcks() // the follower set changed; semi-sync waiters re-count
}

func (p *Primary) broadcastAcks() {
	p.mu.Lock()
	if !p.closed {
		close(p.ackNotify)
		p.ackNotify = make(chan struct{})
	}
	p.mu.Unlock()
}

func (p *Primary) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// WaitReplicated blocks until MinSyncFollowers followers have durably acked
// lsn, the SyncTimeout expires (degrading that commit to asynchronous), or no
// followers are connected (counted, then immediate — a dead follower must
// never wedge the primary's commit path). With MinSyncFollowers 0 it returns
// immediately.
func (p *Primary) WaitReplicated(lsn uint64) {
	if p.cfg.MinSyncFollowers <= 0 {
		return
	}
	deadline := time.Now().Add(p.cfg.SyncTimeout)
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		n, acked := len(p.followers), 0
		for _, fc := range p.followers {
			if fc.acked.Load() >= lsn {
				acked++
			}
		}
		ch := p.ackNotify
		p.mu.Unlock()
		if acked >= p.cfg.MinSyncFollowers {
			return
		}
		if n == 0 {
			p.unreplicated.Add(1)
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			p.syncTimeouts.Add(1)
			return
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			p.syncTimeouts.Add(1)
			return
		}
	}
}

// FollowerInfo is the primary's lag accounting for one connected follower.
type FollowerInfo struct {
	Addr     string `json:"addr"`
	AckedLSN uint64 `json:"acked_lsn"`
	SentLSN  uint64 `json:"sent_lsn"`
	LagLSN   uint64 `json:"lag_lsn"` // primary durable LSN − acked
	// LagMs is how long the follower has been behind, in milliseconds: time
	// since its oldest outstanding (sent, unacked) batch. 0 while caught up.
	LagMs        float64 `json:"lag_ms"`
	ConnectedSec float64 `json:"connected_sec"`
}

// PrimaryStatus is a point-in-time view of the shipper.
type PrimaryStatus struct {
	LastLSN    uint64         `json:"last_lsn"`
	DurableLSN uint64         `json:"durable_lsn"`
	Followers  []FollowerInfo `json:"followers"`
	// SyncTimeouts counts semi-sync waits that degraded to asynchronous;
	// Unreplicated counts semi-sync commits acked with no follower connected.
	SyncTimeouts int64 `json:"sync_timeouts"`
	Unreplicated int64 `json:"unreplicated"`
	// Resyncs counts followers sent back for a full snapshot after log
	// truncation outran them; Snapshots counts snapshots shipped.
	Resyncs   int64 `json:"resyncs"`
	Snapshots int64 `json:"snapshots"`
}

// Status reports the shipper's state and per-follower lag.
func (p *Primary) Status() PrimaryStatus {
	st := PrimaryStatus{
		LastLSN:      p.log.LastLSN(),
		DurableLSN:   p.log.DurableLSN(),
		SyncTimeouts: p.syncTimeouts.Load(),
		Unreplicated: p.unreplicated.Load(),
		Resyncs:      p.resyncs.Load(),
		Snapshots:    p.snapshots.Load(),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fc := range p.followers {
		acked := fc.acked.Load()
		info := FollowerInfo{
			Addr:         fc.addr,
			AckedLSN:     acked,
			SentLSN:      fc.sent.Load(),
			ConnectedSec: time.Since(fc.since).Seconds(),
		}
		if st.DurableLSN > acked {
			info.LagLSN = st.DurableLSN - acked
			if at := fc.behindSince.Load(); at != 0 {
				info.LagMs = float64(time.Now().UnixNano()-at) / 1e6
			}
		}
		st.Followers = append(st.Followers, info)
	}
	return st
}
