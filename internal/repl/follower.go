package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/wal"
)

// ErrFollowerLagged is returned when an operation needs the follower to be
// caught up to the primary and it is not (it has fallen behind the primary's
// truncation horizon, or disconnected entirely).
var ErrFollowerLagged = errors.New("repl: follower lagging behind primary")

// Target is the follower side of the engine: the applier feeds it snapshots
// and committed transactions. Implementations must make a transaction
// durable (appended to the local log and fsync'd) before ApplyTxns returns,
// because the applier acks the primary immediately after.
type Target interface {
	// LastLSN is the follower's resume point: the highest LSN durably in its
	// local log.
	LastLSN() uint64
	// ApplySnapshot replaces the follower's entire state with the snapshot.
	ApplySnapshot(snap *Snapshot) error
	// ApplyTxns applies committed transactions in order.
	ApplyTxns(txns []Txn) error
}

// FollowerConfig tunes the applier. The zero value gets defaults from fill().
type FollowerConfig struct {
	// DialTimeout bounds one connection attempt (default 3s).
	DialTimeout time.Duration
	// MinBackoff and MaxBackoff bound the exponential reconnect backoff
	// (defaults 100ms and 10s); actual sleeps are jittered ±50%.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// IdleTimeout is how long the stream may be silent before the connection
	// is declared dead (default 10s; the primary heartbeats every second, so
	// this tolerates nine missed heartbeats).
	IdleTimeout time.Duration
}

func (c *FollowerConfig) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 3 * time.Second
	}
	if c.MinBackoff <= 0 {
		c.MinBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 10 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Second
	}
}

// Follower maintains a replication session to the primary: dial, handshake,
// apply, and on any error reconnect with exponential backoff plus jitter,
// resuming from the target's last durable LSN.
type Follower struct {
	addr   string
	target Target
	cfg    FollowerConfig

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	connected      atomic.Bool
	applied        atomic.Uint64 // last commit LSN durably applied
	primaryDurable atomic.Uint64 // primary's durable LSN per last heartbeat/batch
	hbSeq          atomic.Uint64 // heartbeats fully processed (see ConfirmCaughtUp)
	reconnects     atomic.Int64
	badFrames      atomic.Int64
	snapshots      atomic.Int64
	applyHist      *obs.Histogram // per-ApplyTxns latency

	mu      sync.Mutex
	lastErr error
}

// StartFollower begins replicating from the primary at addr into target and
// returns immediately; the session runs until Stop.
func StartFollower(addr string, target Target, cfg FollowerConfig) *Follower {
	cfg.fill()
	f := &Follower{
		addr:      addr,
		target:    target,
		cfg:       cfg,
		stop:      make(chan struct{}),
		applyHist: obs.NewHistogram(),
	}
	f.applied.Store(target.LastLSN())
	f.wg.Add(1)
	go f.run()
	return f
}

// Stop ends the session and waits for the applier goroutine to exit. No
// ApplyTxns call is in flight after it returns. Safe for concurrent callers
// (Promote and a racing Close may both own a reference to the same session).
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

func (f *Follower) run() {
	defer f.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := f.cfg.MinBackoff
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		err := f.session()
		f.connected.Store(false)
		if err != nil {
			f.setErr(err)
		}
		select {
		case <-f.stop:
			return
		default:
		}
		f.reconnects.Add(1)
		// Jitter ±50% so a herd of followers does not reconnect in lockstep.
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		t := time.NewTimer(sleep)
		select {
		case <-f.stop:
			t.Stop()
			return
		case <-t.C:
		}
		if backoff *= 2; backoff > f.cfg.MaxBackoff {
			backoff = f.cfg.MaxBackoff
		}
	}
}

// session runs one connection: handshake, optional snapshot, stream-apply.
// It returns when the connection dies or Stop is called.
func (f *Follower) session() error {
	conn, err := net.DialTimeout("tcp", f.addr, f.cfg.DialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	// A Stop mid-session must unblock reads promptly.
	closer := make(chan struct{})
	defer close(closer)
	go func() {
		select {
		case <-f.stop:
			conn.Close()
		case <-closer:
		}
	}()

	hello := make([]byte, 16)
	binary.LittleEndian.PutUint32(hello, protoMagic)
	binary.LittleEndian.PutUint32(hello[4:], protoVersion)
	binary.LittleEndian.PutUint64(hello[8:], f.target.LastLSN())
	conn.SetWriteDeadline(time.Now().Add(f.cfg.DialTimeout))
	if err := writeMsg(conn, MsgHello, hello); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})

	// The assembler holds back the records of a transaction whose commit
	// record has not arrived yet — MsgRecords batches are sized by bytes and
	// can split a transaction. Nothing is applied or acked until the commit
	// record closes the group, so the local log only ever holds whole
	// transactions and the resume point is always a commit boundary. Frames
	// are CRC-checked individually; any damage poisons the whole batch (the
	// session ends, and the primary resends from the last acked commit).
	asm := wal.NewAssembler(true)
	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.IdleTimeout))
		typ, payload, err := readMsg(conn)
		if err != nil {
			return err
		}
		switch typ {
		case MsgSnapBegin:
			snap, err := recvSnapshot(conn, payload)
			if err != nil {
				return err
			}
			if err := f.target.ApplySnapshot(snap); err != nil {
				return fmt.Errorf("repl: install snapshot: %w", err)
			}
			f.snapshots.Add(1)
			f.applied.Store(snap.LSN)
			asm = wal.NewAssembler(true)
			if err := writeMsg(conn, MsgAck, putU64(snap.LSN)); err != nil {
				return err
			}
		case MsgStreamBegin:
			from, err := u64(payload)
			if err != nil {
				return err
			}
			if from != f.target.LastLSN() && from != f.applied.Load() {
				return fmt.Errorf("repl: stream resumes at LSN %d, local log ends at %d", from, f.target.LastLSN())
			}
			f.connected.Store(true)
			f.setErr(nil)
		case MsgRecords:
			lastLSN, err := u64(payload)
			if err != nil {
				return err
			}
			txns, err := asm.Feed(payload[8:])
			if err != nil {
				f.badFrames.Add(1)
				return err
			}
			if lastLSN > f.primaryDurable.Load() {
				f.primaryDurable.Store(lastLSN)
			}
			if len(txns) == 0 {
				continue
			}
			start := time.Now()
			if err := f.target.ApplyTxns(txns); err != nil {
				return fmt.Errorf("repl: apply: %w", err)
			}
			f.applyHist.Observe(time.Since(start))
			applied := txns[len(txns)-1].LastLSN
			f.applied.Store(applied)
			if err := writeMsg(conn, MsgAck, putU64(applied)); err != nil {
				return err
			}
		case MsgHeartbeat:
			lsn, err := u64(payload)
			if err != nil {
				return err
			}
			if lsn > f.primaryDurable.Load() {
				f.primaryDurable.Store(lsn)
			}
			// Re-ack on idle so a primary that missed an ack converges.
			if err := writeMsg(conn, MsgAck, putU64(f.applied.Load())); err != nil {
				return err
			}
			// A processed heartbeat is proof of freshness: the primary had
			// nothing durable beyond lsn when it sent it, and everything
			// shipped before it has been applied (the stream is ordered).
			f.hbSeq.Add(1)
		case MsgDeny:
			return fmt.Errorf("%w: %s", ErrDenied, payload)
		default:
			return fmt.Errorf("%w: unexpected message %d", ErrBadEnvelope, typ)
		}
	}
}

// ConfirmCaughtUp establishes, with evidence no older than the call, whether
// this replica may be promoted. It returns nil when the session to the
// primary is down (the primary is presumed dead; nothing it acked through
// this follower can be newer than what is applied), or once a heartbeat
// processed *after* the call shows the applied LSN has reached everything
// the primary holds durable. It returns ErrFollowerLagged when the follower
// is demonstrably behind a live primary, and — because heartbeats only flow
// on an idle stream — when the primary is still actively committing, which
// is exactly when promotion would fork the history. Lag figures from before
// the call are never trusted: they can be stale by a full heartbeat
// interval, during which a live primary may have committed records this
// replica never saw.
func (f *Follower) ConfirmCaughtUp() error {
	if f.connected.Load() && f.applied.Load() < f.primaryDurable.Load() {
		return fmt.Errorf("%w: %d records behind a live primary",
			ErrFollowerLagged, f.primaryDurable.Load()-f.applied.Load())
	}
	// Stale accounting says caught up; wait for fresh proof. The wait is
	// bounded by IdleTimeout: a connection silent that long is declared dead
	// by the session itself, flipping connected off.
	seq := f.hbSeq.Load()
	deadline := time.Now().Add(f.cfg.IdleTimeout + time.Second)
	for {
		if !f.connected.Load() {
			return nil
		}
		if s := f.hbSeq.Load(); s != seq {
			seq = s
			if f.applied.Load() >= f.primaryDurable.Load() {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: no heartbeat confirmed catch-up with the live primary",
				ErrFollowerLagged)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// FollowerStatus is a point-in-time view of the applier.
type FollowerStatus struct {
	Connected  bool   `json:"connected"`
	AppliedLSN uint64 `json:"applied_lsn"`
	// PrimaryDurableLSN is the primary's durable LSN as of the last
	// heartbeat; LagLSN is how far applied trails it.
	PrimaryDurableLSN uint64 `json:"primary_durable_lsn"`
	LagLSN            uint64 `json:"lag_lsn"`
	Reconnects        int64  `json:"reconnects"`
	// BadFrames counts record batches rejected for framing or CRC damage.
	BadFrames int64  `json:"bad_frames"`
	Snapshots int64  `json:"snapshots"`
	LastError string `json:"last_error,omitempty"`
}

// Status reports connection state and lag as of the last heartbeat.
func (f *Follower) Status() FollowerStatus {
	st := FollowerStatus{
		Connected:         f.connected.Load(),
		AppliedLSN:        f.applied.Load(),
		PrimaryDurableLSN: f.primaryDurable.Load(),
		Reconnects:        f.reconnects.Load(),
		BadFrames:         f.badFrames.Load(),
		Snapshots:         f.snapshots.Load(),
	}
	if st.PrimaryDurableLSN > st.AppliedLSN {
		st.LagLSN = st.PrimaryDurableLSN - st.AppliedLSN
	}
	f.mu.Lock()
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	f.mu.Unlock()
	return st
}

// ApplyHist returns the ApplyTxns latency histogram (batch receipt to local
// durability).
func (f *Follower) ApplyHist() obs.HistSnapshot { return f.applyHist.Snapshot() }
