package jobstore

import (
	"context"
	"sync"
	"time"
)

// memJob is one job's full in-memory state.
type memJob struct {
	job             Job
	state           State
	attempt         int
	worker          string
	err             string
	result          []byte
	submittedAt     time.Time
	claimedAt       time.Time
	leaseExpiry     time.Time
	cancelRequested bool
	completions     int
	cancelFn        func()        // CancelWatcher hook for the live claim
	done            chan struct{} // closed on terminal transition
}

// Mem is the in-process store: a bounded FIFO queue with lease-based claim
// tracking. It is revcnnd's default and keeps the original single-process
// semantics — instant claim wakeups via Notify and instant cancellation via
// the CancelWatcher fast path.
type Mem struct {
	mu       sync.Mutex
	opt      Options
	jobs     map[string]*memJob
	queue    []string // FIFO of queued job IDs; re-queued retries go to the front
	leased   map[string]struct{}
	terminal []string // terminal IDs in completion order, for retention eviction
	notify   chan struct{}
	closed   bool

	claimed, retried, orphaned, completed int64
}

// NewMem builds an in-memory store.
func NewMem(opt Options) *Mem {
	opt.fillDefaults()
	return &Mem{
		opt:    opt,
		jobs:   make(map[string]*memJob),
		leased: make(map[string]struct{}),
		notify: make(chan struct{}, 1),
	}
}

var _ Store = (*Mem)(nil)
var _ CancelWatcher = (*Mem)(nil)

func (m *Mem) pulse() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// Submit implements Store.
func (m *Mem) Submit(j Job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if len(m.queue) >= m.opt.QueueDepth {
		return ErrFull
	}
	if _, dup := m.jobs[j.ID]; dup {
		return ErrTerminal // ID reuse is a caller bug; refuse rather than clobber
	}
	m.jobs[j.ID] = &memJob{
		job:         j,
		state:       StateQueued,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	m.queue = append(m.queue, j.ID)
	m.pulse()
	return nil
}

// sweepLocked re-queues or orphans expired leases. Called with mu held.
func (m *Mem) sweepLocked(now time.Time) {
	for id := range m.leased {
		j := m.jobs[id]
		if j == nil || j.state != StateRunning || now.Before(j.leaseExpiry) {
			continue
		}
		delete(m.leased, id)
		j.cancelFn = nil
		j.worker = ""
		switch {
		case j.cancelRequested:
			m.terminalizeLocked(id, j, StateCancelled, "cancelled while lease expired")
		case j.attempt-1 >= m.opt.MaxRetries:
			m.orphaned++
			m.terminalizeLocked(id, j, StateFailed, "lease expired; retry cap exhausted")
		default:
			m.retried++
			j.state = StateQueued
			m.queue = append([]string{id}, m.queue...) // retries resume first
			m.pulse()
		}
	}
}

// terminalizeLocked moves a job into a final state and drops its payload:
// a finished job is never claimed again, and the retained record must not
// keep its upload alive. Called with mu held.
func (m *Mem) terminalizeLocked(id string, j *memJob, st State, reason string) {
	j.state = st
	j.job.Payload = nil
	if j.err == "" {
		j.err = reason
	}
	j.cancelFn = nil
	close(j.done)
	m.terminal = append(m.terminal, id)
	for len(m.terminal) > m.opt.RetainTerminal {
		evict := m.terminal[0]
		m.terminal = m.terminal[1:]
		delete(m.jobs, evict)
	}
}

// Claim implements Store.
func (m *Mem) Claim(worker string, lease time.Duration) (*Claim, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	now := time.Now()
	m.sweepLocked(now)
	if len(m.queue) == 0 {
		return nil, ErrEmpty
	}
	id := m.queue[0]
	m.queue = m.queue[1:]
	j := m.jobs[id]
	j.state = StateRunning
	j.worker = worker
	j.attempt++
	j.claimedAt = now
	j.leaseExpiry = now.Add(lease)
	m.leased[id] = struct{}{}
	m.claimed++
	return &Claim{
		ID:          id,
		Payload:     j.job.Payload,
		Attempt:     j.attempt,
		Deadline:    j.job.Deadline,
		SubmittedAt: j.submittedAt,
		ClaimedAt:   now,
	}, nil
}

// ownedLocked returns the job iff (id, worker, attempt) is the live claim.
func (m *Mem) ownedLocked(id, worker string, attempt int) (*memJob, error) {
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	if j.state != StateRunning || j.worker != worker || j.attempt != attempt {
		return nil, ErrLost
	}
	return j, nil
}

// Heartbeat implements Store.
func (m *Mem) Heartbeat(id, worker string, attempt int, lease time.Duration) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.ownedLocked(id, worker, attempt)
	if err != nil {
		return false, err
	}
	j.leaseExpiry = time.Now().Add(lease)
	return j.cancelRequested, nil
}

// Complete implements Store.
func (m *Mem) Complete(id, worker string, attempt int, result []byte, failure string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.ownedLocked(id, worker, attempt)
	if err != nil {
		return err
	}
	delete(m.leased, id)
	j.result = result
	j.err = failure
	j.completions++
	m.completed++
	st := StateDone
	switch {
	case j.cancelRequested:
		st = StateCancelled
	case failure != "":
		st = StateFailed
	}
	m.terminalizeLocked(id, j, st, failure)
	return nil
}

// Fetch implements Store.
func (m *Mem) Fetch(id string) (*Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	return snapshotLocked(id, j), nil
}

func snapshotLocked(id string, j *memJob) *Record {
	return &Record{
		ID:              id,
		State:           j.state,
		Attempt:         j.attempt,
		Worker:          j.worker,
		Err:             j.err,
		Result:          j.result,
		SubmittedAt:     j.submittedAt,
		ClaimedAt:       j.claimedAt,
		LeaseExpiry:     j.leaseExpiry,
		CancelRequested: j.cancelRequested,
		Completions:     j.completions,
	}
}

// Cancel implements Store.
func (m *Mem) Cancel(id string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return false, ErrNotFound
	}
	if j.state.Terminal() {
		return false, ErrTerminal
	}
	j.cancelRequested = true
	if j.state == StateQueued {
		for i, qid := range m.queue {
			if qid == id {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		m.terminalizeLocked(id, j, StateCancelled, "cancelled while queued")
		return true, nil
	}
	if fn := j.cancelFn; fn != nil {
		j.cancelFn = nil
		go fn() // outside the claim's critical sections; fn must be idempotent
	}
	return false, nil
}

// WatchCancel implements CancelWatcher.
func (m *Mem) WatchCancel(id string, attempt int, fn func()) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil || j.state != StateRunning || j.attempt != attempt {
		m.mu.Unlock()
		return
	}
	if j.cancelRequested {
		m.mu.Unlock()
		fn()
		return
	}
	j.cancelFn = fn
	m.mu.Unlock()
}

// Wait implements Store.
func (m *Mem) Wait(ctx context.Context, id string) (*Record, error) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	done := j.done
	m.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return snapshotLocked(id, j), nil
}

// Notify implements Store.
func (m *Mem) Notify() <-chan struct{} { return m.notify }

// Stats implements Store.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(time.Now())
	return Stats{
		Queued:    len(m.queue),
		Leased:    len(m.leased),
		Claimed:   m.claimed,
		Retried:   m.retried,
		Orphaned:  m.orphaned,
		Completed: m.completed,
	}
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
