package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// newTestServer builds a server plus its httptest front end. The cleanup
// shuts the job queue down before closing the HTTP server, mirroring the
// revcnnd exit path.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// postSimulate issues a simulate request and decodes the response.
func postSimulate(t *testing.T, ts *httptest.Server, body string) (*attackResponse, int) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var ar attackResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	return &ar, resp.StatusCode
}

// endlessRankBody is a simulate request whose ranking stage runs for an
// unbounded number of epochs: only cancellation (client disconnect or
// deadline) ends it, and it ends within one epoch of the signal.
func endlessRankBody(timeoutMS int) string {
	return fmt.Sprintf(`{"model":"lenet","rank":{"classes":2,"per_class":6,"epochs":1048576,"max_candidates":1},"timeout_ms":%d}`, timeoutMS)
}

// startCancellable fires a request on its own goroutine with a private
// context; the returned channel yields the client-side error after cancel.
func startCancellable(t *testing.T, ts *httptest.Server, body string) (cancel context.CancelFunc, done chan error) {
	t.Helper()
	ctx, cancelFn := context.WithCancel(context.Background())
	done = make(chan error, 1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/attack/simulate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	return cancelFn, done
}

// lenetTraceBytes records a LeNet victim's memory trace the same way the
// structrev tests do, serialized for upload.
func lenetTraceBytes(t *testing.T) ([]byte, *nn.Network) {
	t.Helper()
	net := nn.LeNet(10)
	net.InitWeights(1)
	sim, err := accel.New(net, accel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := make([]float32, net.Input.Len())
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	res, err := sim.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), net
}

// TestTraceUploadEndToEnd uploads a recorded LeNet trace and checks the
// service recovers exactly the candidate set the library does directly.
func TestTraceUploadEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, net := lenetTraceBytes(t)

	resp, err := ts.Client().Post(ts.URL+"/v1/attack/trace?inw=28&ind=1&classes=10", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var ar attackResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}

	// Reference: the direct library pipeline on the same trace.
	rep, err := coreReferenceSolve(t, raw, net)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Partial {
		t.Fatal("full-deadline job reported partial")
	}
	if ar.NumStructures != rep {
		t.Fatalf("service found %d structures, library %d", ar.NumStructures, rep)
	}
	if ar.NumStructures == 0 || len(ar.Segments) == 0 {
		t.Fatalf("empty result: %+v", ar)
	}
	if ar.StageMS == nil {
		t.Fatal("missing stage timings")
	}
	for _, st := range []string{"analyze", "solve"} {
		if _, ok := ar.StageMS[st]; !ok {
			t.Fatalf("missing %s stage timing", st)
		}
	}
}

func coreReferenceSolve(t *testing.T, raw []byte, net *nn.Network) (int, error) {
	t.Helper()
	tr, err := memtrace.DecodeTrace(raw)
	if err != nil {
		return 0, err
	}
	a, err := structrev.Analyze(tr, net.Input.Len()*4, 4)
	if err != nil {
		return 0, err
	}
	sts, err := structrev.Solve(a, net.Input.W, net.Input.C, net.NumClasses(), structrev.DefaultOptions())
	if err != nil {
		return 0, err
	}
	return len(sts), nil
}

// TestTraceUploadRejectsGarbageAndOversize pins the untrusted-boundary
// behavior: malformed bodies are 400s, oversized ones 413s, and neither
// consumes a job slot.
func TestTraceUploadRejectsGarbageAndOversize(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxUploadBytes: 1 << 10})

	resp, err := ts.Client().Post(ts.URL+"/v1/attack/trace?inw=28&ind=1&classes=10", "application/octet-stream", strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", resp.StatusCode)
	}

	big := bytes.Repeat([]byte{0xAA}, 4<<10)
	resp, err = ts.Client().Post(ts.URL+"/v1/attack/trace?inw=28&ind=1&classes=10", "application/octet-stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	if got := s.Metrics().Counter("started"); got != 0 {
		t.Fatalf("rejected uploads started %d jobs", got)
	}
}

// TestQueueFullReturns429 pins the overload contract: with the single
// worker pinned and the queue full, a burst of submissions is rejected
// immediately with 429 — nothing blocks behind the running job.
func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, JobTimeout: 5 * time.Minute})

	cancelA, doneA := startCancellable(t, ts, endlessRankBody(0))
	defer cancelA()
	waitFor(t, "worker busy", 30*time.Second, func() bool { return s.Metrics().Counter("running") == 1 })

	cancelB, doneB := startCancellable(t, ts, endlessRankBody(0))
	defer cancelB()
	waitFor(t, "queue occupied", 30*time.Second, func() bool { return s.queueDepth() == 1 })

	const burst = 5
	codes := make(chan int, burst)
	for i := 0; i < burst; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate", "application/json", strings.NewReader(`{"model":"lenet"}`))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < burst; i++ {
		select {
		case code := <-codes:
			if code != http.StatusTooManyRequests {
				t.Fatalf("burst request got status %d, want 429", code)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("burst request blocked behind a full queue")
		}
	}
	if got := s.Metrics().Counter("rejected"); got != burst {
		t.Fatalf("rejected counter %d, want %d", got, burst)
	}

	cancelA()
	cancelB()
	<-doneA
	<-doneB
	waitFor(t, "cancelled jobs to unwind", 60*time.Second, func() bool {
		return s.Metrics().Counter("running") == 0 && s.queueDepth() == 0
	})
}

// TestClientDisconnectCancelsJob pins cancellation latency: killing the
// client mid-rank frees the worker within one candidate/epoch boundary,
// visible through the stage-cancellation counters, and the worker is
// immediately usable again.
func TestClientDisconnectCancelsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobTimeout: 5 * time.Minute})

	cancel, done := startCancellable(t, ts, endlessRankBody(0))
	waitFor(t, "solve stage to finish (job inside rank)", 60*time.Second, func() bool {
		return s.Metrics().StageCount("solve") == 1
	})
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled client request returned no error")
	}
	waitFor(t, "worker to notice the disconnect", 60*time.Second, func() bool {
		return s.Metrics().Counter("cancelled") == 1 && s.Metrics().Counter("running") == 0
	})
	if got := s.Metrics().StageCancelled("rank"); got < 1 {
		t.Fatalf("rank stage cancellations %d, want >= 1", got)
	}

	// The pool is clean: a fresh job completes normally.
	ar, code := postSimulate(t, ts, `{"model":"lenet"}`)
	if code != http.StatusOK || ar == nil || ar.Partial || ar.NumStructures == 0 {
		t.Fatalf("post-cancel job: code %d resp %+v", code, ar)
	}
}

// TestDeadlineReturnsPartialResult pins partial-result semantics: a job
// whose deadline strikes during ranking still returns 200 with the complete
// structure enumeration, Partial set, and untrained candidates marked.
func TestDeadlineReturnsPartialResult(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	timeoutMS := 1500
	if raceEnabled {
		timeoutMS = 6000
	}
	ar, code := postSimulate(t, ts, endlessRankBody(timeoutMS))
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 with partial body", code)
	}
	if !ar.Partial {
		t.Fatalf("response not marked partial: %+v", ar)
	}
	if ar.NumStructures == 0 {
		t.Fatal("partial response lost the completed solve stage")
	}
	var cancelledScores int
	for _, sc := range ar.Scores {
		if sc.Error != "" && sc.Accuracy == nil {
			cancelledScores++
		}
	}
	if cancelledScores == 0 {
		t.Fatalf("no scores marked cancelled: %+v", ar.Scores)
	}
	if got := s.Metrics().Counter("partial"); got != 1 {
		t.Fatalf("partial counter %d, want 1", got)
	}
	if got := s.Metrics().StageCancelled("rank"); got < 1 {
		t.Fatalf("rank stage cancellations %d, want >= 1", got)
	}
}

// TestShutdownDrainsInFlightAbortsQueued pins the SIGTERM contract: the
// in-flight job runs to completion, every queued job is aborted with 503,
// and new submissions are refused while draining.
func TestShutdownDrainsInFlightAbortsQueued(t *testing.T) {
	epochs := 1000
	if raceEnabled {
		epochs = 150
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, JobTimeout: 5 * time.Minute})

	finite := fmt.Sprintf(`{"model":"lenet","rank":{"classes":2,"per_class":6,"epochs":%d,"max_candidates":1}}`, epochs)
	typeA := make(chan *attackResponse, 1)
	codeA := make(chan int, 1)
	go func() {
		ar, code := postSimulate(t, ts, finite)
		typeA <- ar
		codeA <- code
	}()
	waitFor(t, "in-flight job running", 30*time.Second, func() bool { return s.Metrics().Counter("running") == 1 })

	queuedCodes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate", "application/json", strings.NewReader(`{"model":"lenet"}`))
			if err != nil {
				queuedCodes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			queuedCodes <- resp.StatusCode
		}()
	}
	waitFor(t, "two jobs queued", 30*time.Second, func() bool { return s.queueDepth() == 2 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Queued jobs are aborted promptly, long before the in-flight job ends.
	for i := 0; i < 2; i++ {
		select {
		case code := <-queuedCodes:
			if code != http.StatusServiceUnavailable {
				t.Fatalf("queued job got status %d, want 503", code)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("queued job was not aborted by shutdown")
		}
	}

	// A submission during the drain is refused.
	resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate", "application/json", strings.NewReader(`{"model":"lenet"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain got %d, want 503", resp.StatusCode)
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if ar, code := <-typeA, <-codeA; code != http.StatusOK || ar == nil || ar.Partial {
		t.Fatalf("in-flight job was not drained to completion: code %d resp %+v", code, ar)
	}
	m := s.Metrics()
	if m.Counter("completed") != 1 || m.Counter("aborted") != 2 || m.Counter("started") != 1 {
		t.Fatalf("drain metrics: completed %d aborted %d started %d, want 1/2/1",
			m.Counter("completed"), m.Counter("aborted"), m.Counter("started"))
	}
	if m.Counter("running") != 0 {
		t.Fatal("running gauge nonzero after drain")
	}
}

// TestHealthzAndMetrics exercises the observability surface.
func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if ar, code := postSimulate(t, ts, `{"model":"lenet"}`); code != http.StatusOK || ar.NumStructures == 0 {
		t.Fatalf("simulate: code %d resp %+v", code, ar)
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Workers != 2 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"revcnnd_jobs_started_total 1",
		"revcnnd_jobs_completed_total 1",
		"revcnnd_jobs_running 0",
		"revcnnd_queue_depth 0",
		"revcnnd_workers 2",
		`revcnnd_stage_seconds_count{stage="solve"} 1`,
		`revcnnd_stage_cancelled_total{stage="rank"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	if got := s.Metrics().StageCount("capture"); got != 1 {
		t.Fatalf("capture stage count %d, want 1", got)
	}
}

// TestCorruptTolerantEndToEnd pins the hostile-probe surface: trace mode
// with corruption query params degrades the upload and takes the tolerant
// path, simulate mode accepts the JSON corrupt spec, and invalid corruption
// parameters are 400s that never consume a job slot.
func TestCorruptTolerantEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	raw, net := lenetTraceBytes(t)

	// Clean reference count from the direct library pipeline.
	want, err := coreReferenceSolve(t, raw, net)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupted upload: drop + bounded reorder at the levels the tolerant
	// analyzer is tested to survive.
	url := ts.URL + "/v1/attack/trace?inw=28&ind=1&classes=10&drop_rate=0.02&reorder_window=16&corrupt_seed=1"
	resp, err := ts.Client().Post(url, "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var ar attackResponse
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("corrupted upload: status %d: %s", resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ar.Corrupted || !ar.Tolerant || ar.Noise == nil {
		t.Fatalf("corrupted upload not flagged: corrupted=%v tolerant=%v noise=%v", ar.Corrupted, ar.Tolerant, ar.Noise)
	}
	if _, ok := ar.StageMS["corrupt"]; !ok {
		t.Fatal("missing corrupt stage timing")
	}
	if len(ar.Segments) != 4 || ar.NumStructures == 0 {
		t.Fatalf("corrupted upload: %d segments, %d structures", len(ar.Segments), ar.NumStructures)
	}

	// Tolerant-on-clean simulate reproduces the strict candidate set and
	// reports zero-noise stats.
	tr, code := postSimulate(t, ts, `{"model":"lenet","seed":1,"tolerant":true}`)
	if code != http.StatusOK {
		t.Fatalf("tolerant simulate: status %d", code)
	}
	if !tr.Tolerant || tr.Corrupted || tr.Noise == nil {
		t.Fatalf("tolerant simulate flags: tolerant=%v corrupted=%v noise=%v", tr.Tolerant, tr.Corrupted, tr.Noise)
	}
	if tr.NumStructures != want {
		t.Fatalf("tolerant clean simulate found %d structures, strict library %d", tr.NumStructures, want)
	}
	if tr.Noise.WriteHoleFrac != 0 || tr.Noise.InterferenceRegions != 0 {
		t.Fatalf("clean capture reported noise: %+v", tr.Noise)
	}

	// Corrupted simulate runs the corrupt stage inside the service pipeline.
	cr, code := postSimulate(t, ts, `{"model":"lenet","seed":1,"corrupt":{"seed":1,"drop_rate":0.02,"reorder_window":16}}`)
	if code != http.StatusOK {
		t.Fatalf("corrupt simulate: status %d", code)
	}
	if !cr.Corrupted || !cr.Tolerant || cr.NumStructures == 0 {
		t.Fatalf("corrupt simulate: corrupted=%v tolerant=%v structures=%d", cr.Corrupted, cr.Tolerant, cr.NumStructures)
	}

	started := s.Metrics().Counter("started")

	// Out-of-range and non-finite corruption and analysis parameters are
	// rejected before enqueue; a NaN must never reach the JSON job encoding.
	for _, bad := range []string{
		"drop_rate=2",
		"interference_rate=-0.5",
		"reorder_window=-1",
		"interference_regions=1000",
		"tol=NaN", "tol=Inf", "tol=-Inf", "tol=-1",
		"drop_rate=NaN", "split_rate=NaN", "interference_rate=NaN",
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/attack/trace?inw=28&ind=1&classes=10&"+bad, "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if _, code := postSimulate(t, ts, `{"model":"lenet","corrupt":{"drop_rate":1.5}}`); code != http.StatusBadRequest {
		t.Fatalf("bad simulate corrupt spec: status %d, want 400", code)
	}

	// Oversized geometry claims are rejected at the same boundary.
	for _, bad := range []string{"inw=99999&ind=1&classes=10", "inw=28&ind=1&classes=10&elem=0"} {
		resp, err := ts.Client().Post(ts.URL+"/v1/attack/trace?"+bad, "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if got := s.Metrics().Counter("started"); got != started {
		t.Fatalf("rejected requests consumed job slots: started %d -> %d", started, got)
	}
}

// TestQueryBoolRejectsUnrecognized pins the boolean-parameter regression:
// a typo like tolerant=ture must be a 400 naming the parameter, not a
// silent false that runs the wrong attack under a 200.
func TestQueryBoolRejectsUnrecognized(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	raw, _ := lenetTraceBytes(t)

	for _, param := range []string{"rank", "modular", "tolerant", "allow_stride_over_kernel", "cache_bypass"} {
		url := fmt.Sprintf("%s/v1/attack/trace?inw=28&ind=1&classes=10&%s=ture", ts.URL, param)
		resp, err := ts.Client().Post(url, "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s=ture: status %d, want 400", param, resp.StatusCode)
		}
		if !strings.Contains(string(body), param) {
			t.Fatalf("%s=ture: error %q does not name the parameter", param, body)
		}
	}

	// The full accepted vocabulary still parses on both sides of the coin.
	for _, v := range []string{"0", "1", "true", "false", "yes", "no"} {
		url := fmt.Sprintf("%s/v1/attack/trace?inw=28&ind=1&classes=10&tolerant=%s", ts.URL, v)
		resp, err := ts.Client().Post(url, "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tolerant=%s: status %d, want 200", v, resp.StatusCode)
		}
	}

	// Same vocabulary guard on the simulate endpoint's cache_bypass.
	resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate?cache_bypass=ture", "application/json", strings.NewReader(`{"model":"lenet"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cache_bypass") {
		t.Fatalf("simulate cache_bypass=ture: status %d body %q, want 400 naming the parameter", resp.StatusCode, body)
	}

	// None of the rejected requests reached the queue. (The six accepted
	// vocabulary uploads enqueue at most six jobs: tolerant=0/false/no and
	// tolerant=1/true/yes each share a cache key, so later ones may hit.)
	if got := s.Metrics().Counter("started"); got > 6 {
		t.Fatalf("rejected requests consumed job slots: started %d", got)
	}
}

// postTrace uploads a trace and returns the status, raw response bytes, and
// the cache-marker header.
func postTrace(t *testing.T, ts *httptest.Server, query string, raw []byte) (int, []byte, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/attack/trace?"+query, "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Revcnnd-Cache")
}

// TestTraceCacheHitByteIdentity pins the result cache's contract: a repeat
// of an identical upload is served from the cache byte-for-byte, without
// running any pipeline stage past decode, and cache_bypass forces a fresh
// computation.
func TestTraceCacheHitByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	raw, _ := lenetTraceBytes(t)
	const q = "inw=28&ind=1&classes=10"

	code, first, marker := postTrace(t, ts, q, raw)
	if code != http.StatusOK || marker != "" {
		t.Fatalf("first upload: status %d marker %q", code, marker)
	}
	m := s.Metrics()
	if m.Counter("cache_misses") != 1 || m.Counter("cache_stores") != 1 {
		t.Fatalf("first upload: misses %d stores %d, want 1/1", m.Counter("cache_misses"), m.Counter("cache_stores"))
	}
	started, analyzed, solved := m.Counter("started"), m.StageCount("analyze"), m.StageCount("solve")

	code, second, marker := postTrace(t, ts, q, raw)
	if code != http.StatusOK || marker != "hit" {
		t.Fatalf("second upload: status %d marker %q, want 200 hit", code, marker)
	}
	var ar attackResponse
	if err := json.Unmarshal(second, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Cached {
		t.Fatal("cached response not marked cached")
	}
	if ar.NumStructures == 0 || len(ar.Segments) == 0 {
		t.Fatalf("cached response lost its payload: %+v", ar)
	}
	// The cached body is the stored computation verbatim, so apart from the
	// cached marker it matches the first response byte for byte.
	want := bytes.Replace(first, []byte(`"mode":"trace"`), []byte(`"mode":"trace","cached":true`), 1)
	if !bytes.Equal(second, want) {
		t.Fatalf("cached body diverges from the original beyond the cached flag:\n first: %s\nsecond: %s", first, second)
	}
	// No pipeline stage past decode ran for the hit.
	if m.Counter("started") != started || m.StageCount("analyze") != analyzed || m.StageCount("solve") != solved {
		t.Fatalf("cache hit ran the pipeline: started %d->%d analyze %d->%d solve %d->%d",
			started, m.Counter("started"), analyzed, m.StageCount("analyze"), solved, m.StageCount("solve"))
	}
	if m.Counter("cache_hits") != 1 {
		t.Fatalf("cache_hits %d, want 1", m.Counter("cache_hits"))
	}

	// Hits are stable: a third identical request returns identical bytes.
	code, third, _ := postTrace(t, ts, q, raw)
	if code != http.StatusOK || !bytes.Equal(second, third) {
		t.Fatalf("repeat hit not byte-identical (status %d)", code)
	}

	// Different analysis parameters are a different key, not a stale hit.
	code, _, marker = postTrace(t, ts, q+"&tol=0.5", raw)
	if code != http.StatusOK || marker == "hit" {
		t.Fatalf("changed params: status %d marker %q, want a miss", code, marker)
	}

	// cache_bypass recomputes even though the entry exists.
	code, bypassed, marker := postTrace(t, ts, q+"&cache_bypass=1", raw)
	if code != http.StatusOK || marker == "hit" {
		t.Fatalf("bypass: status %d marker %q", code, marker)
	}
	var br attackResponse
	if err := json.Unmarshal(bypassed, &br); err != nil {
		t.Fatal(err)
	}
	if br.Cached {
		t.Fatal("bypassed response claims to be cached")
	}
	if m.Counter("cache_bypassed") != 1 || m.Counter("started") != started+2 {
		t.Fatalf("bypass accounting: bypassed %d started %d, want 1 and %d", m.Counter("cache_bypassed"), m.Counter("started"), started+2)
	}

	// The cache surface is visible on /metrics.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"revcnnd_cache_hits_total 2", "revcnnd_cache_bypassed_total 1", "revcnnd_cache_entries 2"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestCacheDisabled pins the negative-budget escape hatch: with caching off
// every identical request recomputes and no cache metrics move.
func TestCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: -1})
	for i := 0; i < 2; i++ {
		if ar, code := postSimulate(t, ts, `{"model":"lenet"}`); code != http.StatusOK || ar.Cached {
			t.Fatalf("request %d: code %d cached %v", i, code, ar.Cached)
		}
	}
	m := s.Metrics()
	if m.Counter("started") != 2 {
		t.Fatalf("started %d, want 2 recomputations", m.Counter("started"))
	}
	if m.Counter("cache_hits")+m.Counter("cache_misses")+m.Counter("cache_stores") != 0 {
		t.Fatal("disabled cache recorded lookups")
	}
}

// TestSimulateSeedZeroDistinct pins the seed-zero regression: seed 0 is a
// real victim, not an alias for the default, while an omitted seed and an
// explicit seed 2 share one result.
func TestSimulateSeedZeroDistinct(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	if ar, code := postSimulate(t, ts, `{"model":"lenet","seed":0}`); code != http.StatusOK || ar.NumStructures == 0 {
		t.Fatalf("seed 0: code %d resp %+v", code, ar)
	}
	if ar, code := postSimulate(t, ts, `{"model":"lenet"}`); code != http.StatusOK || ar.Cached {
		t.Fatalf("omitted seed: code %d cached %v — seed 0 and the default collided", code, ar.Cached)
	}
	m := s.Metrics()
	if m.Counter("cache_misses") != 2 || m.Counter("cache_hits") != 0 {
		t.Fatalf("seed 0 vs default: misses %d hits %d, want 2/0", m.Counter("cache_misses"), m.Counter("cache_hits"))
	}

	// The documented default: an omitted seed is exactly seed 2.
	if ar, code := postSimulate(t, ts, `{"model":"lenet","seed":2}`); code != http.StatusOK || !ar.Cached {
		t.Fatalf("seed 2: code %d cached %v — omitted seed did not resolve to 2", code, ar.Cached)
	}
	if m.Counter("started") != 2 {
		t.Fatalf("started %d, want 2 (seed 2 served from the omitted-seed entry)", m.Counter("started"))
	}
}

// TestClientDisconnectWritesNothing pins the disconnect regression: when
// the client is gone before the job finishes, the server writes no status
// and no body (previously a 408 nobody could receive) and records the
// abandoned outcome.
func TestClientDisconnectWritesNothing(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the job even starts
	req := httptest.NewRequest(http.MethodPost, "/v1/attack/simulate", strings.NewReader(`{"model":"lenet"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	// Nothing was written: the recorder still holds its zero-value 200 with
	// an empty body, meaning net/http would just drop the dead connection.
	if rec.Body.Len() != 0 {
		t.Fatalf("disconnected client was sent a body: %q", rec.Body.String())
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d written to a disconnected client", rec.Code)
	}
	m := s.Metrics()
	if m.Counter("abandoned") != 1 || m.Counter("cancelled") != 1 {
		t.Fatalf("abandoned %d cancelled %d, want 1/1", m.Counter("abandoned"), m.Counter("cancelled"))
	}
	if m.Counter("cache_stores") != 0 {
		t.Fatal("abandoned job stored a cache entry")
	}
}

// TestSimulateWeightAttack runs the §4-compatible victim through the
// service with weight recovery enabled.
func TestSimulateWeightAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("weight recovery is slow in -short mode")
	}
	_, ts := newTestServer(t, Config{JobTimeout: 5 * time.Minute})
	ar, code := postSimulate(t, ts, `{"model":"prunedconv1","filters":4,"weights":true,"classes":1}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ar.Weights == nil {
		t.Fatalf("no weight report (weights_error=%q)", ar.WeightsError)
	}
	if ar.Weights.Filters != 4 || ar.Weights.MaxRatioErr > 1.0/1024 {
		t.Fatalf("weight recovery out of paper tolerance: %+v", ar.Weights)
	}

	// A pooled/padded victim cannot satisfy §4's reach; the job still
	// succeeds and reports why.
	ar, code = postSimulate(t, ts, `{"model":"lenet","weights":true}`)
	if code != http.StatusOK || ar.WeightsError == "" {
		t.Fatalf("pooled victim: code %d weights_error %q", code, ar.WeightsError)
	}
}

// TestSimulateWeightsZeroBiasVictim: the zoo's victims have zero biases,
// which leave w/b undefined. The weight attack refuses such a victim before
// its first query and the job reports why, instead of spending the query
// budget and failing to encode an infinite ratio error (a 500).
func TestSimulateWeightsZeroBiasVictim(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTimeout: time.Minute})
	ar, code := postSimulate(t, ts, `{"model":"squeezenet","depth_div":8,"weights":true,"max_structures":5}`)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if ar.Weights != nil || !strings.Contains(ar.WeightsError, "zero bias") {
		t.Fatalf("weights %+v, weights_error %q; want a zero-bias weights_error", ar.Weights, ar.WeightsError)
	}
}

// TestTraceUploadSolverCap pins the solver cap through the service. A LeNet
// upload has 27 candidate structures: a cap of 5 is a 422 naming the cap,
// and a cap of 27 returns every structure.
func TestTraceUploadSolverCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, _ := lenetTraceBytes(t)
	code, body, _ := postTrace(t, ts, "inw=28&ind=1&classes=10&max_structures=5", raw)
	want := "structrev: more than 5 candidate structures; aborting: too many candidate structures\n"
	if code != http.StatusUnprocessableEntity || string(body) != want {
		t.Fatalf("cap 5: status %d body %q, want 422 %q", code, body, want)
	}
	code, body, _ = postTrace(t, ts, "inw=28&ind=1&classes=10&max_structures=27", raw)
	if code != http.StatusOK {
		t.Fatalf("cap 27: status %d: %s", code, body)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.NumStructures != 27 || len(ar.Structures) != 27 || ar.Truncated || ar.Partial {
		t.Fatalf("cap 27: %d structures (%d rendered, truncated %v, partial %v), want all 27",
			ar.NumStructures, len(ar.Structures), ar.Truncated, ar.Partial)
	}
}
