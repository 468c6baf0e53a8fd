package jobstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// stores returns a factory per implementation so every conformance test
// runs against both.
func stores(t *testing.T) map[string]func(opt Options) Store {
	t.Helper()
	return map[string]func(opt Options) Store{
		"mem": func(opt Options) Store { return NewMem(opt) },
		"fs": func(opt Options) Store {
			if opt.PollInterval == 0 {
				opt.PollInterval = 5 * time.Millisecond // keep lease tests fast
			}
			s, err := OpenFS(t.TempDir(), opt)
			if err != nil {
				t.Fatalf("OpenFS: %v", err)
			}
			return s
		},
	}
}

func eachStore(t *testing.T, opt Options, fn func(t *testing.T, s Store)) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(opt)
			defer s.Close()
			fn(t, s)
		})
	}
}

func TestSubmitClaimComplete(t *testing.T) {
	eachStore(t, Options{}, func(t *testing.T, s Store) {
		id := NewID()
		deadline := time.Now().Add(time.Minute)
		if err := s.Submit(Job{ID: id, Payload: []byte("req"), Deadline: deadline}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		c, err := s.Claim("w1", time.Minute)
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if c.ID != id || !bytes.Equal(c.Payload, []byte("req")) || c.Attempt != 1 {
			t.Fatalf("claim = %+v", c)
		}
		if c.Deadline.Sub(deadline) > time.Millisecond || deadline.Sub(c.Deadline) > time.Millisecond {
			t.Fatalf("deadline drifted: got %v want %v", c.Deadline, deadline)
		}
		if cancel, err := s.Heartbeat(id, "w1", 1, time.Minute); err != nil || cancel {
			t.Fatalf("Heartbeat = %v, %v", cancel, err)
		}
		if err := s.Complete(id, "w1", 1, []byte("res"), ""); err != nil {
			t.Fatalf("Complete: %v", err)
		}
		rec, err := s.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		if rec.State != StateDone || !bytes.Equal(rec.Result, []byte("res")) || rec.Completions != 1 {
			t.Fatalf("record = %+v", rec)
		}
	})
}

func TestQueueDepthRejects(t *testing.T) {
	eachStore(t, Options{QueueDepth: 2}, func(t *testing.T, s Store) {
		for i := 0; i < 2; i++ {
			if err := s.Submit(Job{ID: NewID()}); err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
		}
		if err := s.Submit(Job{ID: NewID()}); !errors.Is(err, ErrFull) {
			t.Fatalf("Submit over depth = %v, want ErrFull", err)
		}
		// Draining one makes room again.
		if _, err := s.Claim("w1", time.Minute); err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if err := s.Submit(Job{ID: NewID()}); err != nil {
			t.Fatalf("Submit after claim: %v", err)
		}
	})
}

func TestClaimEmptyAndFIFO(t *testing.T) {
	eachStore(t, Options{}, func(t *testing.T, s Store) {
		if _, err := s.Claim("w1", time.Minute); !errors.Is(err, ErrEmpty) {
			t.Fatalf("Claim on empty = %v, want ErrEmpty", err)
		}
		var ids []string
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("j-fifo-%d", i)
			ids = append(ids, id)
			if err := s.Submit(Job{ID: id}); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			time.Sleep(2 * time.Millisecond) // distinct SubmittedAt for the fs store
		}
		for i, want := range ids {
			c, err := s.Claim("w1", time.Minute)
			if err != nil {
				t.Fatalf("Claim %d: %v", i, err)
			}
			if c.ID != want {
				t.Fatalf("claim %d = %s, want %s (FIFO)", i, c.ID, want)
			}
		}
	})
}

func TestCancelQueued(t *testing.T) {
	eachStore(t, Options{}, func(t *testing.T, s Store) {
		id := NewID()
		if err := s.Submit(Job{ID: id}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		wasQueued, err := s.Cancel(id)
		if err != nil || !wasQueued {
			t.Fatalf("Cancel = %v, %v; want queued cancel", wasQueued, err)
		}
		rec, err := s.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if rec.State != StateCancelled {
			t.Fatalf("state = %s, want cancelled", rec.State)
		}
		if _, err := s.Claim("w1", time.Minute); !errors.Is(err, ErrEmpty) {
			t.Fatalf("cancelled job still claimable: %v", err)
		}
		if _, err := s.Cancel(id); !errors.Is(err, ErrTerminal) {
			t.Fatalf("Cancel terminal = %v, want ErrTerminal", err)
		}
	})
}

func TestCancelRunningFlagsHeartbeat(t *testing.T) {
	eachStore(t, Options{}, func(t *testing.T, s Store) {
		id := NewID()
		if err := s.Submit(Job{ID: id}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, err := s.Claim("w1", time.Minute); err != nil {
			t.Fatalf("Claim: %v", err)
		}
		wasQueued, err := s.Cancel(id)
		if err != nil || wasQueued {
			t.Fatalf("Cancel running = %v, %v; want flagged not queued", wasQueued, err)
		}
		cancel, err := s.Heartbeat(id, "w1", 1, time.Minute)
		if err != nil || !cancel {
			t.Fatalf("Heartbeat after cancel = %v, %v; want cancelRequested", cancel, err)
		}
		if err := s.Complete(id, "w1", 1, nil, ""); err != nil {
			t.Fatalf("Complete: %v", err)
		}
		rec, _ := s.Fetch(id)
		if rec.State != StateCancelled {
			t.Fatalf("state = %s, want cancelled (cancel acknowledged)", rec.State)
		}
	})
}

func TestLeaseExpiryReclaimExactlyOnce(t *testing.T) {
	eachStore(t, Options{}, func(t *testing.T, s Store) {
		id := NewID()
		if err := s.Submit(Job{ID: id, Payload: []byte("p")}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, err := s.Claim("dead", 10*time.Millisecond); err != nil {
			t.Fatalf("Claim: %v", err)
		}
		time.Sleep(20 * time.Millisecond) // let the lease lapse

		c2, err := s.Claim("alive", time.Minute) // sweep re-queues, same pass re-claims
		if err != nil {
			t.Fatalf("re-Claim after expiry: %v", err)
		}
		if c2.ID != id || c2.Attempt != 2 {
			t.Fatalf("re-claim = %+v, want attempt 2", c2)
		}
		// The dead worker wakes up: its credentials are stale.
		if _, err := s.Heartbeat(id, "dead", 1, time.Minute); !errors.Is(err, ErrLost) {
			t.Fatalf("stale Heartbeat = %v, want ErrLost", err)
		}
		if err := s.Complete(id, "dead", 1, []byte("stale"), ""); !errors.Is(err, ErrLost) {
			t.Fatalf("stale Complete = %v, want ErrLost", err)
		}
		if err := s.Complete(id, "alive", 2, []byte("good"), ""); err != nil {
			t.Fatalf("live Complete: %v", err)
		}
		rec, _ := s.Fetch(id)
		if rec.State != StateDone || !bytes.Equal(rec.Result, []byte("good")) || rec.Completions != 1 {
			t.Fatalf("record = %+v; want exactly-once good result", rec)
		}
		if st := s.Stats(); st.Retried < 1 {
			t.Fatalf("Stats.Retried = %d, want >= 1", st.Retried)
		}
	})
}

func TestRetryCapOrphans(t *testing.T) {
	eachStore(t, Options{MaxRetries: 1}, func(t *testing.T, s Store) {
		id := NewID()
		if err := s.Submit(Job{ID: id}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		for attempt := 1; attempt <= 2; attempt++ {
			c, err := s.Claim(fmt.Sprintf("w%d", attempt), 5*time.Millisecond)
			if err != nil {
				t.Fatalf("Claim attempt %d: %v", attempt, err)
			}
			if c.Attempt != attempt {
				t.Fatalf("attempt = %d, want %d", c.Attempt, attempt)
			}
			time.Sleep(15 * time.Millisecond)
		}
		// Second expiry exhausts MaxRetries=1: the next sweep orphans it.
		if _, err := s.Claim("w3", time.Minute); !errors.Is(err, ErrEmpty) {
			t.Fatalf("Claim after cap = %v, want ErrEmpty (orphaned)", err)
		}
		rec, err := s.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		if rec.State != StateFailed || rec.Err == "" {
			t.Fatalf("record = %+v; want failed with reason", rec)
		}
		if st := s.Stats(); st.Orphaned < 1 {
			t.Fatalf("Stats.Orphaned = %d, want >= 1", st.Orphaned)
		}
	})
}

func TestWaitBlocksUntilTerminal(t *testing.T) {
	eachStore(t, Options{}, func(t *testing.T, s Store) {
		id := NewID()
		if err := s.Submit(Job{ID: id}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := s.Wait(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Wait on live job = %v, want deadline", err)
		}
		done := make(chan *Record, 1)
		go func() {
			rec, err := s.Wait(context.Background(), id)
			if err != nil {
				t.Errorf("Wait: %v", err)
			}
			done <- rec
		}()
		if _, err := s.Claim("w1", time.Minute); err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if err := s.Complete(id, "w1", 1, []byte("r"), ""); err != nil {
			t.Fatalf("Complete: %v", err)
		}
		select {
		case rec := <-done:
			if rec.State != StateDone {
				t.Fatalf("state = %s", rec.State)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Wait did not return after completion")
		}
	})
}

func TestFetchUnknownAndDuplicateSubmit(t *testing.T) {
	eachStore(t, Options{}, func(t *testing.T, s Store) {
		if _, err := s.Fetch("j-missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Fetch missing = %v, want ErrNotFound", err)
		}
		if _, err := s.Wait(context.Background(), "j-missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Wait missing = %v, want ErrNotFound", err)
		}
		id := NewID()
		if err := s.Submit(Job{ID: id}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if err := s.Submit(Job{ID: id}); err == nil {
			t.Fatal("duplicate Submit accepted")
		}
	})
}

func TestFailedCompletion(t *testing.T) {
	eachStore(t, Options{}, func(t *testing.T, s Store) {
		id := NewID()
		if err := s.Submit(Job{ID: id}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, err := s.Claim("w1", time.Minute); err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if err := s.Complete(id, "w1", 1, nil, "victim model too large"); err != nil {
			t.Fatalf("Complete: %v", err)
		}
		rec, _ := s.Fetch(id)
		if rec.State != StateFailed || rec.Err != "victim model too large" {
			t.Fatalf("record = %+v", rec)
		}
	})
}

func TestConcurrentClaimsNoDoubleIssue(t *testing.T) {
	eachStore(t, Options{QueueDepth: 64}, func(t *testing.T, s Store) {
		const jobs = 16
		for i := 0; i < jobs; i++ {
			if err := s.Submit(Job{ID: fmt.Sprintf("j-conc-%02d", i)}); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		var mu sync.Mutex
		seen := map[string]int{}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				name := fmt.Sprintf("w%d", w)
				for {
					c, err := s.Claim(name, time.Minute)
					if errors.Is(err, ErrEmpty) {
						return
					}
					if err != nil {
						t.Errorf("Claim: %v", err)
						return
					}
					mu.Lock()
					seen[c.ID]++
					mu.Unlock()
					if err := s.Complete(c.ID, name, c.Attempt, nil, ""); err != nil {
						t.Errorf("Complete: %v", err)
					}
				}
			}(w)
		}
		wg.Wait()
		if len(seen) != jobs {
			t.Fatalf("claimed %d distinct jobs, want %d", len(seen), jobs)
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("job %s claimed %d times", id, n)
			}
		}
	})
}

func TestMemWatchCancelFastPath(t *testing.T) {
	s := NewMem(Options{})
	defer s.Close()
	id := NewID()
	if err := s.Submit(Job{ID: id}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := s.Claim("w1", time.Minute); err != nil {
		t.Fatalf("Claim: %v", err)
	}
	fired := make(chan struct{})
	s.WatchCancel(id, 1, func() { close(fired) })
	if _, err := s.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("WatchCancel did not fire")
	}
	// Registering after the fact fires immediately.
	fired2 := make(chan struct{})
	s.WatchCancel(id, 1, func() { close(fired2) })
	select {
	case <-fired2:
	case <-time.After(time.Second):
		t.Fatal("late WatchCancel did not fire")
	}
}

func TestMemTerminalRetention(t *testing.T) {
	s := NewMem(Options{RetainTerminal: 2, QueueDepth: 16})
	defer s.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("j-ret-%d", i)
		ids = append(ids, id)
		if err := s.Submit(Job{ID: id}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		c, err := s.Claim("w1", time.Minute)
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if err := s.Complete(c.ID, "w1", c.Attempt, nil, ""); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	for _, id := range ids[:2] {
		if _, err := s.Fetch(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("evicted %s still present: %v", id, err)
		}
	}
	for _, id := range ids[2:] {
		if _, err := s.Fetch(id); err != nil {
			t.Fatalf("retained %s missing: %v", id, err)
		}
	}
}

// memPayload reads the payload the in-memory store still holds for id.
func memPayload(t *testing.T, m *Mem, id string) []byte {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		t.Fatalf("job %s not retained", id)
	}
	return j.job.Payload
}

// TestMemDropsPayloadWhenTerminal: the in-memory store keeps its last
// RetainTerminal finished jobs for Fetch and Wait, but not their uploads.
// Every terminal transition drops the payload, while a job re-queued after
// a lease expiry is re-claimed with it.
func TestMemDropsPayloadWhenTerminal(t *testing.T) {
	payload := []byte("upload bytes")
	submit := func(t *testing.T, m *Mem) string {
		t.Helper()
		id := NewID()
		if err := m.Submit(Job{ID: id, Payload: payload}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return id
	}
	claim := func(t *testing.T, m *Mem, worker string, lease time.Duration) *Claim {
		t.Helper()
		c, err := m.Claim(worker, lease)
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if !bytes.Equal(c.Payload, payload) {
			t.Fatalf("attempt %d claimed payload %q, want %q", c.Attempt, c.Payload, payload)
		}
		return c
	}
	for _, tc := range []struct {
		name   string
		want   State
		finish func(t *testing.T, m *Mem, id string)
	}{
		{"complete", StateDone, func(t *testing.T, m *Mem, id string) {
			c := claim(t, m, "w1", time.Minute)
			if err := m.Complete(c.ID, "w1", c.Attempt, []byte("res"), ""); err != nil {
				t.Fatalf("Complete: %v", err)
			}
		}},
		{"cancel-queued", StateCancelled, func(t *testing.T, m *Mem, id string) {
			if _, err := m.Cancel(id); err != nil {
				t.Fatalf("Cancel: %v", err)
			}
		}},
		{"orphaned", StateFailed, func(t *testing.T, m *Mem, id string) {
			claim(t, m, "w1", time.Millisecond)
			time.Sleep(5 * time.Millisecond)
			// The expired lease is re-queued, and the retry still carries
			// its payload.
			claim(t, m, "w2", time.Millisecond)
			time.Sleep(5 * time.Millisecond)
			m.Stats() // sweeps: the retry cap is exhausted
		}},
		{"cancel-at-lease-expiry", StateCancelled, func(t *testing.T, m *Mem, id string) {
			claim(t, m, "w1", time.Millisecond)
			if _, err := m.Cancel(id); err != nil {
				t.Fatalf("Cancel: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
			m.Stats()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMem(Options{MaxRetries: 1})
			defer m.Close()
			id := submit(t, m)
			tc.finish(t, m, id)
			rec, err := m.Fetch(id)
			if err != nil {
				t.Fatalf("Fetch: %v", err)
			}
			if rec.State != tc.want {
				t.Fatalf("state %s (%s), want %s", rec.State, rec.Err, tc.want)
			}
			if p := memPayload(t, m, id); p != nil {
				t.Fatalf("%s job still holds its %d-byte payload", rec.State, len(p))
			}
		})
	}
}

// TestFSSharedDirectory is the cross-process shape in miniature: two FS
// handles on one directory, submit through one, drain through the other.
func TestFSSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	opt := Options{PollInterval: 5 * time.Millisecond}
	front, err := OpenFS(dir, opt)
	if err != nil {
		t.Fatalf("OpenFS front: %v", err)
	}
	defer front.Close()
	worker, err := OpenFS(dir, opt)
	if err != nil {
		t.Fatalf("OpenFS worker: %v", err)
	}
	defer worker.Close()

	id := NewID()
	if err := front.Submit(Job{ID: id, Payload: []byte("shared")}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	c, err := worker.Claim("other-proc", time.Minute)
	if err != nil {
		t.Fatalf("Claim via second handle: %v", err)
	}
	if c.ID != id || !bytes.Equal(c.Payload, []byte("shared")) {
		t.Fatalf("claim = %+v", c)
	}
	if err := worker.Complete(id, "other-proc", 1, []byte("out"), ""); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	rec, err := front.Wait(context.Background(), id)
	if err != nil {
		t.Fatalf("Wait via first handle: %v", err)
	}
	if rec.State != StateDone || !bytes.Equal(rec.Result, []byte("out")) {
		t.Fatalf("record = %+v", rec)
	}
}

func TestClosedStoreRejects(t *testing.T) {
	eachStore(t, Options{}, func(t *testing.T, s Store) {
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := s.Submit(Job{ID: NewID()}); !errors.Is(err, ErrClosed) {
			t.Fatalf("Submit after close = %v, want ErrClosed", err)
		}
		if _, err := s.Claim("w1", time.Minute); !errors.Is(err, ErrClosed) {
			t.Fatalf("Claim after close = %v, want ErrClosed", err)
		}
	})
}
