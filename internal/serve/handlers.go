package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cnnrev/internal/jobstore"
	"cnnrev/internal/structrev"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Role == RoleWorker {
		// A pure worker keeps only the observability surface; attack
		// submission and job polling belong to the frontends.
		return
	}
	s.mux.HandleFunc("POST /v1/attack/trace", s.handleTrace)
	s.mux.HandleFunc("POST /v1/attack/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := struct {
		Status     string `json:"status"`
		Role       string `json:"role"`
		Workers    int    `json:"workers"`
		Running    int64  `json:"running"`
		QueueDepth int    `json:"queue_depth"`
	}{"ok", s.cfg.Role, s.cfg.Workers, s.met.running.Load(), s.queueDepth()}
	code := http.StatusOK
	if s.isDraining() {
		st.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	cacheBytes, cacheEntries := s.cacheStats()
	s.met.writePrometheus(w, s.store.Stats(), s.cfg.Workers, cacheBytes, cacheEntries)
}

// jobStatusJSON is the GET /v1/jobs/{id} body: the store record plus, for
// finished jobs, the result envelope's status and body.
type jobStatusJSON struct {
	ID      string `json:"job_id"`
	State   string `json:"state"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
	// Status and Result carry the finished job's HTTP outcome: the status
	// the synchronous path would have returned and the attack response body.
	Status int             `json:"status,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, err := s.store.Fetch(id)
	if err != nil {
		if errors.Is(err, jobstore.ErrNotFound) {
			http.Error(w, "unknown job", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	st := jobStatusJSON{ID: rec.ID, State: string(rec.State), Attempt: rec.Attempt, Error: rec.Err}
	if rec.State.Terminal() && len(rec.Result) > 0 {
		if env, derr := decodeEnvelope(rec.Result); derr == nil {
			st.Status = env.Status
			st.Result = env.Body
			if env.ErrMsg != "" && st.Error == "" {
				st.Error = env.ErrMsg
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wasQueued, err := s.store.Cancel(id)
	switch {
	case errors.Is(err, jobstore.ErrNotFound):
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	case errors.Is(err, jobstore.ErrTerminal):
		http.Error(w, "job already finished", http.StatusConflict)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	state := "cancelling" // running: the worker acknowledges at the next boundary
	if wasQueued {
		state = "cancelled"
		s.met.cancelled.Add(1)
	}
	s.log.Info("job cancel requested", "job", id, "queued", wasQueued)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"job_id\":%q,\"state\":%q}\n", id, state)
}

// handleTrace accepts a raw serialized memtrace body plus query parameters
// describing what the adversary knows (input geometry and class count).
// The body is read straight into the job payload (uploadPayload) and
// checked record by record as it lands, so a corrupt upload fails at its
// first bad record and an accepted one is kept once, as the 21 bytes per
// record it arrived as; the finished upload is SHA-256-hashed once to form
// the result-cache key. Query parameters are validated before the body is
// touched, so a bad request costs a header read rather than a
// multi-gigabyte upload.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > s.cfg.MaxUploadBytes {
		http.Error(w, fmt.Sprintf("trace exceeds %d byte upload limit", s.cfg.MaxUploadBytes), http.StatusRequestEntityTooLarge)
		return
	}
	up := &uploadParams{Elem: 4}
	req := &attackRequest{Upload: up}
	opts := submitOptions{Wait: true}
	err := bindQuery(r.URL.Query(), req, &opts)
	if err == nil {
		err = req.validate()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.MaxStructures = s.solverCap(req.MaxStructures)

	// MaxBytesReader guards chunked uploads that carry no Content-Length;
	// its error comes back from receive wrapped, so errors.As recovers it.
	decodeStart := time.Now()
	pb, err := newUploadPayload(req, r.ContentLength)
	if err != nil {
		http.Error(w, "request encoding failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if err := pb.receive(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("trace exceeds %d byte upload limit", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	payload, err := pb.seal(req)
	if err != nil {
		http.Error(w, "request encoding failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.met.ObserveStage("decode", time.Since(decodeStart))
	s.submit(w, r, req, payload, opts)
}

// handleSimulate accepts a JSON victim spec. Unknown fields are a 400. The
// upload is a request field only the trace endpoint fills, so a body that
// names it gets the decoder's unknown-field error too.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	opts := submitOptions{Wait: true}
	if err := bindQuery(r.URL.Query(), &opts); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req := &attackRequest{Seed: 2} // the documented default for an omitted seed
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil && req.Upload != nil {
		err = errors.New(`json: unknown field "upload"`)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	if err := req.validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.MaxStructures = s.solverCap(req.MaxStructures)
	payload, err := encodeRequest(req)
	if err != nil {
		http.Error(w, "request encoding failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.submit(w, r, req, payload, opts)
}

// marshalResponse renders an attack response body as compact JSON without
// a trailing newline. The worker calls it for the body and, for a
// cacheable result, again for the cached body (see envelope); writers
// append the newline at write time, so cached replays stay byte-identical
// to first responses but for the cached flag.
func marshalResponse(resp *attackResponse) ([]byte, error) {
	return json.Marshal(resp)
}

// writeBody writes a response body plus the protocol's trailing newline.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte{'\n'})
}

// solverCap merges a request's solver cap with the server's
// -max-structures: the tighter positive bound wins, over the solver's
// default. Both handlers resolve it before encoding the job, so every
// worker replica solves under the submitting frontend's bound and the
// cache key records that bound.
func (s *Server) solverCap(requested int) int {
	c := structrev.DefaultOptions().MaxStructures
	if s.cfg.MaxStructures > 0 {
		c = s.cfg.MaxStructures
	}
	if requested > 0 && requested < c {
		c = requested
	}
	return c
}

// submit resolves a validated request, with its solver cap resolved,
// against the content-addressed result cache, then — on a miss — puts its
// encoded payload into the job store. opts.Wait (the default) blocks until
// a worker (or shutdown) finishes the job, writing its outcome and caching
// complete results; otherwise submit returns 202 with the job ID for GET
// /v1/jobs polling.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, req *attackRequest, payload []byte, opts submitOptions) {
	var key string
	if s.cache != nil && opts.Wait {
		key = req.cacheKey()
		if opts.CacheBypass {
			s.met.cacheBypassed.Add(1)
		} else if body, ok := s.cache.get(key); ok {
			s.met.cacheHits.Add(1)
			w.Header().Set("X-Revcnnd-Cache", "hit")
			writeBody(w, http.StatusOK, body)
			return
		} else {
			s.met.cacheMisses.Add(1)
		}
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 || timeout > s.cfg.JobTimeout {
		timeout = s.cfg.JobTimeout
	}
	if r.Context().Err() != nil {
		// The client is gone before anything was enqueued. Count it as a
		// queued job cancelled by its disconnect, and write nothing: a job
		// submitted now could be claimed or finished before the disconnect
		// is noticed, and its work would go unread.
		s.met.cancelled.Add(1)
		s.met.abandoned.Add(1)
		s.log.Info("request canceled by client disconnect before submit; no response written")
		return
	}
	id := jobstore.NewID()

	// Register before submitting so a Shutdown racing this handler either
	// sees the drain flag here or finds the job tracked and aborts it.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, errDraining.Error(), http.StatusServiceUnavailable)
		return
	}
	if opts.Wait {
		s.tracked[id] = struct{}{}
	}
	s.mu.Unlock()
	if opts.Wait {
		defer s.untrack(id)
	}

	deadline := time.Now().Add(timeout)
	if err := s.store.Submit(jobstore.Job{ID: id, Payload: payload, Deadline: deadline}); err != nil {
		code := http.StatusServiceUnavailable
		if errors.Is(err, jobstore.ErrFull) {
			s.met.rejected.Add(1)
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		}
		s.log.Info("job rejected", "job", id, "reason", err)
		http.Error(w, err.Error(), code)
		return
	}
	if opts.Wait && s.isDraining() {
		// Shutdown's abort sweep may have run between tracking and Submit,
		// finding nothing to cancel; abort the stragglers ourselves. A job a
		// worker already claimed drains to completion like any in-flight job.
		if wasQueued, cerr := s.store.Cancel(id); cerr == nil && wasQueued {
			s.met.aborted.Add(1)
			s.log.Info("job aborted by shutdown", "job", id)
			http.Error(w, errDraining.Error(), http.StatusServiceUnavailable)
			return
		}
	}

	if !opts.Wait {
		s.met.async.Add(1)
		s.log.Info("job accepted", "job", id, "mode", req.mode(), "timeout", timeout)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Location", "/v1/jobs/"+id)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "{\"job_id\":%q,\"state\":%q}\n", id, jobstore.StateQueued)
		return
	}

	// Wait out the job on a store watch detached from the client connection:
	// the deadline plus two leases covers queue wait, execution, and one full
	// lease-recovery round before we give up on the store.
	waitCtx, cancelWait := context.WithDeadline(context.Background(), deadline.Add(2*s.cfg.Lease+5*time.Second))
	defer cancelWait()
	type waitResult struct {
		rec *jobstore.Record
		err error
	}
	recc := make(chan waitResult, 1)
	go func() {
		rec, werr := s.store.Wait(waitCtx, id)
		recc <- waitResult{rec, werr}
	}()

	select {
	case <-r.Context().Done():
		// The client disconnected. Cancel the job — a queued job dies here
		// (counted as cancelled, like a running job the worker abandons), a
		// running one is flagged for the worker — then await the terminal
		// state so completed work can still populate the cache. Nothing is
		// written: the peer is gone.
		if wasQueued, cerr := s.store.Cancel(id); cerr == nil && wasQueued {
			s.met.cancelled.Add(1)
		}
		res := <-recc
		s.met.abandoned.Add(1)
		s.log.Info("job canceled by client disconnect; no response written", "job", id)
		if res.err == nil && res.rec.State == jobstore.StateDone {
			if env, err := decodeEnvelope(res.rec.Result); err == nil {
				s.maybeCache(key, env)
			}
		}
		return
	case res := <-recc:
		if res.err != nil {
			http.Error(w, "job did not complete: "+res.err.Error(), http.StatusGatewayTimeout)
			return
		}
		s.writeOutcome(w, key, res.rec)
	}
}

// maybeCache stores a finished job's cached body, which the worker
// marshaled with the cached flag set, under key. The cache keeps its own
// copy, so an entry holds exactly the bytes its budget counts.
func (s *Server) maybeCache(key string, env *resultEnvelope) {
	if s.cache == nil || key == "" || !env.Cacheable {
		return
	}
	s.met.cacheStores.Add(1)
	s.met.cacheEvictions.Add(s.cache.put(key, bytes.Clone(env.Cached)))
}

// writeOutcome relays a terminal job record to the synchronous client.
func (s *Server) writeOutcome(w http.ResponseWriter, key string, rec *jobstore.Record) {
	switch rec.State {
	case jobstore.StateDone, jobstore.StateFailed:
		env, err := decodeEnvelope(rec.Result)
		if err != nil {
			msg := rec.Err
			if msg == "" {
				msg = "job result unreadable: " + err.Error()
			}
			http.Error(w, msg, http.StatusInternalServerError)
			return
		}
		if env.Body == nil {
			http.Error(w, env.ErrMsg, env.Status)
			return
		}
		s.maybeCache(key, env)
		writeBody(w, env.Status, env.Body)
	case jobstore.StateCancelled:
		// Either shutdown aborted it while queued or another client's DELETE
		// landed; both are service-side terminations of a live request.
		http.Error(w, errDraining.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, "job in unexpected state "+string(rec.State), http.StatusInternalServerError)
	}
}
