// Package serve implements revcnnd, the attack-pipeline service: it accepts
// uploaded memory traces (and simulate-by-spec requests) and runs the
// paper's structure attack — optionally followed by candidate ranking and
// the zero-pruning weight attack — as jobs on a pluggable store
// (internal/jobstore). The default in-process store preserves the original
// single-process contract: overload is rejected up front (429), an
// abandoned client's job is cancelled at the next candidate/epoch/weight
// boundary, a deadline yields the partial result accumulated so far, and
// shutdown drains exactly the in-flight jobs while aborting queued ones.
//
// Pointing several processes at one shared filesystem store splits the
// service horizontally: frontends (stateless — every byte of job state
// lives in the store) submit and wait, workers claim jobs under a lease and
// heartbeat while executing, and a worker that dies mid-job has its lease
// expire and the job re-claimed elsewhere. The async surface (wait=false,
// GET /v1/jobs/{id}) lets clients outlive any single frontend connection.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cnnrev/internal/jobstore"
	"cnnrev/internal/memtrace"
)

// Server roles. A frontend serves the HTTP attack/job surface but runs no
// workers; a worker claims and executes jobs but serves only
// healthz/metrics; "both" (the default) is the original single-process
// deployment.
const (
	RoleBoth     = "both"
	RoleFrontend = "frontend"
	RoleWorker   = "worker"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of jobs executed concurrently. Each job already
	// fans out internally on the shared tensor worker pool, so this defaults
	// to 1; raise it to trade per-job latency for throughput. Idle workers
	// also help execute other jobs' rank rungs (see runShared). Forced to 0
	// by RoleFrontend.
	Workers int
	// QueueDepth bounds how many accepted jobs may wait for a worker;
	// submissions beyond it are rejected with 429. Only consulted when the
	// server builds its own in-process store (Store == nil).
	QueueDepth int
	// JobTimeout caps every job's deadline; requests may ask for less but
	// never more. Default 60s. Queue wait counts against the deadline.
	JobTimeout time.Duration
	// MaxUploadBytes bounds trace upload request bodies. Default 64 MiB.
	MaxUploadBytes int64
	// MaxStructures caps the solver's enumeration per job (0 = solver
	// default). It protects the service from pathological traces whose
	// candidate count explodes. The cap is resolved on the frontend and
	// travels with the job, so worker replicas with different local caps
	// still produce the submitting frontend's result.
	MaxStructures int
	// CacheBytes bounds the content-addressed result cache (keys plus
	// stored response bodies). 0 selects the 256 MiB default; negative
	// disables caching entirely.
	CacheBytes int64
	// Store is the job store. nil builds a private in-process store
	// (jobstore.NewMem) with QueueDepth/MaxRetries, which the server also
	// closes on shutdown; a provided store (e.g. jobstore.OpenFS shared by
	// several processes) stays the caller's to close.
	Store jobstore.Store
	// Role selects which halves of the service run: RoleBoth (default),
	// RoleFrontend, or RoleWorker.
	Role string
	// Lease is how long a claimed job may go without a heartbeat before the
	// store re-queues it for another worker. Default 15s.
	Lease time.Duration
	// MaxRetries bounds lease-expiry re-claims before a job is failed as
	// orphaned. Only consulted when the server builds its own store.
	MaxRetries int
	// Logger receives structured per-job logs; defaults to slog.Default().
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.Role == "" {
		c.Role = RoleBoth
	}
	if c.Role == RoleFrontend {
		c.Workers = 0
	}
	if c.Lease <= 0 {
		c.Lease = 15 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// errDraining rejects a submission (or reports an aborted queued job)
// during shutdown.
var errDraining = errors.New("serve: server shutting down")

// job is one claimed attack request as the worker executes it.
type job struct {
	id    string
	ctx   context.Context
	req   *attackRequest
	trace *memtrace.Trace // the decoded upload; nil in simulate mode
}

// Server runs the job store's HTTP surface and (role permitting) its
// workers.
type Server struct {
	cfg      Config
	log      *slog.Logger
	met      *Metrics
	mux      *http.ServeMux
	cache    *resultCache // nil when caching is disabled
	store    jobstore.Store
	ownStore bool
	instance string // worker-name prefix, unique per process

	// shards hands rung sub-tasks from a ranking job to idle workers; see
	// runShared. Unbuffered: a shard is only ever offered, never queued, so
	// a busy pool degrades to the caller training its own rung serially.
	shards chan func()

	mu       sync.Mutex
	draining bool
	tracked  map[string]struct{} // sync submissions owned by this frontend

	// claimGate serializes Shutdown against in-progress Claims: workers hold
	// the read side while claiming, Shutdown takes the write side after
	// closing stopc, so once Shutdown proceeds no further claim can start
	// and every queued job it cancels stays unclaimed.
	claimGate sync.RWMutex
	stopc     chan struct{}
	stopped   atomic.Bool
	wg        sync.WaitGroup
}

// New builds a server and starts its worker goroutines.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		met:      newMetrics(cfg.Workers),
		tracked:  make(map[string]struct{}),
		shards:   make(chan func()),
		stopc:    make(chan struct{}),
		instance: fmt.Sprintf("p%d", os.Getpid()),
	}
	if cfg.CacheBytes > 0 {
		s.cache = newResultCache(cfg.CacheBytes)
	}
	if cfg.Store != nil {
		s.store = cfg.Store
	} else {
		s.store = jobstore.NewMem(jobstore.Options{
			QueueDepth: cfg.QueueDepth,
			MaxRetries: cfg.MaxRetries,
		})
		s.ownStore = true
	}
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters, mainly for tests.
func (s *Server) Metrics() *Metrics { return s.met }

// Store exposes the job store, mainly for tests.
func (s *Server) Store() jobstore.Store { return s.store }

// queueDepth returns the number of jobs waiting for a worker.
func (s *Server) queueDepth() int {
	return s.store.Stats().Queued
}

// cacheStats reports the result cache's occupancy; zeros when disabled.
func (s *Server) cacheStats() (bytes int64, entries int) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.stats()
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// track registers a synchronous submission so Shutdown can abort it while
// queued. Async submissions are deliberately untracked: they belong to the
// store, survive this process, and are exactly what lease recovery exists
// for.
func (s *Server) track(id string) {
	s.mu.Lock()
	s.tracked[id] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(id string) {
	s.mu.Lock()
	delete(s.tracked, id)
	s.mu.Unlock()
}

// Shutdown drains the server: new submissions are refused, every tracked
// queued (not yet claimed) job is aborted with 503, and in-flight jobs run
// to completion. It returns once all workers have exited, or ctx's error if
// that takes longer than ctx allows (workers keep finishing in the
// background either way).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	tracked := make([]string, 0, len(s.tracked))
	for id := range s.tracked {
		tracked = append(tracked, id)
	}
	s.mu.Unlock()

	// Stop claims: after stopped+stopc no worker begins a new job, and the
	// write lock waits out any Claim already in progress — so the queued-job
	// snapshot below cannot race a claim.
	s.stopped.Store(true)
	close(s.stopc)
	s.claimGate.Lock()
	s.claimGate.Unlock() //nolint:staticcheck // barrier, not a critical section

	for _, id := range tracked {
		rec, err := s.store.Fetch(id)
		if err != nil || rec.State != jobstore.StateQueued {
			continue // in flight (drains to completion) or already terminal
		}
		if _, err := s.store.Cancel(id); err == nil {
			s.met.aborted.Add(1)
			s.log.Info("job aborted by shutdown", "job", id)
		}
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err == nil && s.ownStore {
		s.store.Close()
	}
	return err
}

// worker is one claim-execute loop. Between claims it lends itself to other
// jobs' rank rungs via the shard channel, so a mostly-idle pool accelerates
// the one job that is running.
func (s *Server) worker(idx int) {
	defer s.wg.Done()
	name := fmt.Sprintf("%s-w%d", s.instance, idx)
	for {
		if s.stopped.Load() {
			return
		}
		c, ok := s.claim(name)
		if !ok {
			return
		}
		if c == nil {
			select {
			case <-s.stopc:
				return
			case fn := <-s.shards:
				fn()
			case <-s.store.Notify():
			case <-time.After(250 * time.Millisecond):
			}
			continue
		}
		s.runClaimed(idx, name, c)
	}
}

// claim attempts one store claim under the shutdown gate. ok=false means
// the server is draining; a nil claim with ok=true means nothing to do.
func (s *Server) claim(name string) (*jobstore.Claim, bool) {
	s.claimGate.RLock()
	defer s.claimGate.RUnlock()
	if s.stopped.Load() {
		return nil, false
	}
	c, err := s.store.Claim(name, s.cfg.Lease)
	switch {
	case err == nil:
		return c, true
	case errors.Is(err, jobstore.ErrEmpty):
		return nil, true
	case errors.Is(err, jobstore.ErrClosed):
		return nil, false
	default:
		s.log.Error("claim failed", "worker", name, "err", err)
		return nil, true
	}
}

// heartbeatLoop renews the claim's lease until stop closes. A lost lease
// (expired and re-claimed or orphaned while this worker stalled) cancels
// the job context and sets lost, telling runClaimed to discard the result;
// a cancellation request also cancels the context but keeps heartbeating,
// so the store can see the worker acknowledge via Complete.
func (s *Server) heartbeatLoop(c *jobstore.Claim, name string, cancelJob context.CancelFunc, lost *atomic.Bool, stop <-chan struct{}) {
	interval := s.cfg.Lease / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 2*time.Second {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			cancelReq, err := s.store.Heartbeat(c.ID, name, c.Attempt, s.cfg.Lease)
			switch {
			case err == nil:
				if cancelReq {
					cancelJob()
				}
			case errors.Is(err, jobstore.ErrLost) || errors.Is(err, jobstore.ErrNotFound):
				lost.Store(true)
				cancelJob()
				return
			case errors.Is(err, jobstore.ErrClosed):
				return
			default:
				// Transient store trouble: keep the job running and retry on
				// the next tick; the lease has interval*4 of slack.
				s.log.Warn("heartbeat failed", "job", c.ID, "err", err)
			}
		}
	}
}

// runClaimed executes one claimed job end to end: decode the payload, run
// the pipeline under the job deadline with the lease heartbeating, classify
// the outcome, and complete the job with a result envelope. The (ID,
// Attempt) completion credential makes delivery exactly-once even when this
// worker stalls past its lease: the store rejects the stale Complete and
// the re-claiming worker's result is the one that counts.
func (s *Server) runClaimed(idx int, name string, c *jobstore.Claim) {
	s.met.observeQueueWait(c.ClaimedAt.Sub(c.SubmittedAt))
	s.met.workerJob(idx)
	s.met.running.Add(1)
	s.met.started.Add(1)
	defer s.met.running.Add(-1)

	req, derr := decodeRequest(c.Payload)
	var tr *memtrace.Trace
	if derr == nil {
		tr, derr = decodeUpload(req)
	}
	if derr != nil {
		s.met.failed.Add(1)
		s.log.Error("job payload undecodable", "job", c.ID, "err", derr)
		env := encodeEnvelope(&resultEnvelope{Status: http.StatusInternalServerError, ErrMsg: derr.Error()})
		s.store.Complete(c.ID, name, c.Attempt, env, "payload decode: "+derr.Error())
		return
	}

	base := context.Background()
	var cancelDeadline context.CancelFunc = func() {}
	if !c.Deadline.IsZero() {
		base, cancelDeadline = context.WithDeadline(base, c.Deadline)
	}
	ctx, cancelJob := context.WithCancel(base)
	defer cancelDeadline()
	defer cancelJob()

	var lost atomic.Bool
	if cw, ok := s.store.(jobstore.CancelWatcher); ok {
		// Fast path: the in-process store fires this the instant Cancel is
		// called, preserving the original one-epoch disconnect latency.
		cw.WatchCancel(c.ID, c.Attempt, cancelJob)
	}
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		s.heartbeatLoop(c, name, cancelJob, &lost, hbStop)
	}()

	start := time.Now()
	s.log.Info("job start", "job", c.ID, "worker", name, "attempt", c.Attempt,
		"mode", req.mode(), "model", req.Model, "rank", req.Rank != nil,
		"weights", req.Weights, "deadline", c.Deadline)

	resp, status, err := s.execute(&job{id: c.ID, ctx: ctx, req: req, trace: tr})

	close(hbStop)
	<-hbDone
	elapsed := time.Since(start)

	if lost.Load() {
		// The lease expired out from under us: the job now belongs to
		// whoever re-claimed it (or it was orphaned). Discard everything —
		// Complete would be rejected with ErrLost anyway.
		s.log.Warn("job lease lost; discarding result", "job", c.ID, "worker", name,
			"attempt", c.Attempt, "elapsed", elapsed)
		return
	}

	outcome := "ok"
	var env *resultEnvelope
	var failure string
	switch {
	case err != nil && errors.Is(err, context.Canceled):
		outcome = "cancelled"
		s.met.cancelled.Add(1)
		// Complete with no result: cancelRequested terminalizes the job as
		// cancelled, acknowledging the cancellation.
	case err != nil:
		outcome = "error"
		s.met.failed.Add(1)
		env = &resultEnvelope{Status: status, ErrMsg: err.Error()}
		failure = err.Error()
	case resp.Partial:
		outcome = "partial"
		s.met.partial.Add(1)
		s.met.completed.Add(1)
		env = s.envelope(resp, status)
	default:
		s.met.completed.Add(1)
		env = s.envelope(resp, status)
	}
	var result []byte
	if env != nil {
		result = encodeEnvelope(env)
	}
	if cerr := s.store.Complete(c.ID, name, c.Attempt, result, failure); cerr != nil {
		s.log.Warn("job completion rejected", "job", c.ID, "worker", name, "attempt", c.Attempt, "err", cerr)
		return
	}
	s.met.observeLeaseAge(time.Since(c.ClaimedAt))
	s.log.Info("job end", "job", c.ID, "worker", name, "outcome", outcome,
		"elapsed", elapsed, "structures", respStructures(resp), "err", err)
}

// envelope marshals a finished response for the store. Only complete
// (non-partial) 200s are cacheable: partials depend on where the deadline
// struck, which is not a function of the cache key. A cacheable envelope
// also carries the body marshaled with the cached flag set, whatever this
// process's own cache setting: over a shared store the frontend that
// relays the result may cache it while this worker does not.
func (s *Server) envelope(resp *attackResponse, status int) *resultEnvelope {
	body, err := marshalResponse(resp)
	if err != nil {
		return &resultEnvelope{Status: http.StatusInternalServerError, ErrMsg: "response encoding failed: " + err.Error()}
	}
	env := &resultEnvelope{Status: status, Body: body}
	if status == http.StatusOK && !resp.Partial {
		resp.Cached = true
		env.Cached, err = marshalResponse(resp)
		resp.Cached = false
		if err != nil {
			return &resultEnvelope{Status: http.StatusInternalServerError, ErrMsg: "response encoding failed: " + err.Error()}
		}
		env.Cacheable = true
	}
	return env
}

// runShared executes fn(0..n-1) with idle serve workers helping: up to
// Workers-1 shard closures are offered (never queued) on the shard channel,
// each draining the same atomic work counter, and the caller always
// participates — so with no idle worker this degenerates to the serial
// loop, and the rank determinism contract (schedule-independent results)
// makes the fan-out unobservable in the output.
func (s *Server) runShared(n int, fn func(i int)) {
	if n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	helpers := s.cfg.Workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		helper := func() {
			defer wg.Done()
			s.met.shardHelped.Add(1)
			work()
		}
		select {
		case s.shards <- helper:
		default:
			wg.Done() // every worker is busy; don't wait for one
		}
	}
	work()
	wg.Wait()
	s.met.shardRuns.Add(1)
}

func respStructures(resp *attackResponse) int {
	if resp == nil {
		return 0
	}
	return resp.NumStructures
}
