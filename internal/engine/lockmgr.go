package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/exodb/fieldrepl/internal/obs"
)

// ErrWriteConflict is returned when a write cannot stay inside the per-set
// locks it holds or needs: its context was cancelled while waiting behind
// another writer, a BeginSets transaction issued a statement on a set outside
// its declared footprint, or propagation reached a file outside the computed
// footprint. The statement (or transaction) is rolled back; retrying it (with
// a wider footprint, for the BeginSets case) is safe.
var ErrWriteConflict = errors.New("engine: write conflict on per-set locks")

// setLock is one set's exclusive write lock: a one-slot channel holding a
// token when free. Channel-based so acquisition can select against context
// cancellation.
type setLock struct {
	ch chan struct{}
	// wait is this set's lock-wait histogram, digested into the Metrics
	// contention map as "set_lock_wait|<set>".
	wait *obs.Histogram
}

// lockMgr hands out per-set write locks. Writers lock their statement's whole
// footprint in sorted name order before mutating anything, so two writers
// whose footprints overlap always collide on the first shared set and can
// never deadlock (no cycle exists in a globally ordered acquisition).
type lockMgr struct {
	mu    sync.Mutex
	locks map[string]*setLock
}

func newLockMgr() *lockMgr {
	return &lockMgr{locks: map[string]*setLock{}}
}

func (m *lockMgr) lock(name string) *setLock {
	m.mu.Lock()
	defer m.mu.Unlock()
	sl, ok := m.locks[name]
	if !ok {
		sl = &setLock{ch: make(chan struct{}, 1), wait: obs.NewHistogram()}
		sl.ch <- struct{}{}
		m.locks[name] = sl
	}
	return sl
}

// acquire takes the locks of every named set, in the given order (callers
// pass a sorted footprint). Uncontended locks are taken on the fast path; a
// held lock counts one conflict on tr and blocks, charging the wait to tr and
// the per-set histogram. On cancellation the already-acquired prefix is
// released and the error wraps ErrWriteConflict and ctx.Err().
func (m *lockMgr) acquire(ctx context.Context, sets []string, tr *obs.Trace) error {
	for i, name := range sets {
		sl := m.lock(name)
		select {
		case <-sl.ch:
			continue
		default:
		}
		tr.LockConflict(1)
		start := time.Now()
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-sl.ch:
			wait := time.Since(start)
			sl.wait.Observe(wait)
			tr.LockWait(wait)
		case <-done:
			m.release(sets[:i])
			return fmt.Errorf("%w: waiting for set %q: %w", ErrWriteConflict, name, ctx.Err())
		}
	}
	return nil
}

// release returns the locks of every named set. Order is irrelevant.
func (m *lockMgr) release(sets []string) {
	for _, name := range sets {
		m.mu.Lock()
		sl := m.locks[name]
		m.mu.Unlock()
		sl.ch <- struct{}{}
	}
}

// waitSummaries digests every set's lock-wait histogram, keyed
// "set_lock_wait|<set>"; sets whose locks were never contended are omitted.
func (m *lockMgr) waitSummaries() map[string]obs.HistSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]obs.HistSummary{}
	for name, sl := range m.locks {
		s := sl.wait.Snapshot().Summary()
		if s.Count > 0 {
			out["set_lock_wait|"+name] = s
		}
	}
	return out
}
