package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cnnrev/internal/jobstore"
)

func ctxWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func pidForTest() int { return os.Getpid() }

// postAsync submits a simulate request with wait=false and returns the
// accepted job ID.
func postAsync(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate?wait=false", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("async submit: got %d (%s), want 202", resp.StatusCode, b)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q, want /v1/jobs/...", loc)
	}
	var acc struct {
		JobID string `json:"job_id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	if acc.JobID == "" || acc.State != string(jobstore.StateQueued) {
		t.Fatalf("accepted = %+v, want non-empty id in state queued", acc)
	}
	return acc.JobID
}

// getJob polls the job status endpoint once.
func getJob(t *testing.T, ts *httptest.Server, id string) (int, *jobStatusJSON) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	var st jobStatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &st
}

// TestAsyncJobLifecycle submits with wait=false, polls to completion, and
// checks the relayed result matches the synchronous surface.
func TestAsyncJobLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	id := postAsync(t, ts, `{"model":"lenet"}`)

	var final *jobStatusJSON
	waitFor(t, "async job to finish", time.Minute, func() bool {
		code, st := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d", id, code)
		}
		final = st
		return jobstore.State(st.State).Terminal()
	})
	if final.State != string(jobstore.StateDone) || final.Status != http.StatusOK {
		t.Fatalf("final = state %s status %d (err %q), want done/200", final.State, final.Status, final.Error)
	}
	var ar attackResponse
	if err := json.Unmarshal(final.Result, &ar); err != nil {
		t.Fatalf("result body: %v", err)
	}
	if ar.JobID != id || ar.NumStructures == 0 {
		t.Fatalf("result job_id=%q structures=%d, want id %q and structures > 0", ar.JobID, ar.NumStructures, id)
	}
	if got := s.Metrics().Counter("async"); got != 1 {
		t.Fatalf("async counter = %d, want 1", got)
	}
	if code, _ := getJob(t, ts, "jdeadbeef00000000"); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}
}

// TestAsyncCancelQueued parks a job on a workerless frontend and cancels it
// through the DELETE surface.
func TestAsyncCancelQueued(t *testing.T) {
	_, ts := newTestServer(t, Config{Role: RoleFrontend})
	id := postAsync(t, ts, `{"model":"lenet"}`)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", resp.StatusCode)
	}
	code, st := getJob(t, ts, id)
	if code != http.StatusOK || st.State != string(jobstore.StateCancelled) {
		t.Fatalf("after cancel: code %d state %s, want 200 cancelled", code, st.State)
	}
	// Cancelling a terminal job conflicts.
	resp, err = ts.Client().Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE = %d, want 409", resp.StatusCode)
	}
}

// TestSharedStoreTwoServers runs a workerless frontend and a frontend-less
// worker against one shared filesystem store: the frontend's synchronous
// request must be executed by the worker process's pool.
func TestSharedStoreTwoServers(t *testing.T) {
	dir := t.TempDir()
	opt := jobstore.Options{PollInterval: 5 * time.Millisecond}
	front, err := jobstore.OpenFS(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	back, err := jobstore.OpenFS(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()

	fs, ts := newTestServer(t, Config{Role: RoleFrontend, Store: front})
	ws, _ := newTestServer(t, Config{Role: RoleWorker, Store: back, Workers: 2, Lease: 2 * time.Second})

	ar, code := postSimulate(t, ts, `{"model":"lenet"}`)
	if code != http.StatusOK {
		t.Fatalf("simulate through shared store = %d, want 200", code)
	}
	if ar.NumStructures == 0 {
		t.Fatal("no structures from shared-store execution")
	}
	if got := fs.Metrics().Counter("started"); got != 0 {
		t.Fatalf("frontend executed %d jobs itself, want 0", got)
	}
	if got := ws.Metrics().Counter("started"); got != 1 {
		t.Fatalf("worker started = %d, want 1", got)
	}
	if got := ws.Metrics().Counter("completed"); got != 1 {
		t.Fatalf("worker completed = %d, want 1", got)
	}
	// The worker role must not expose the attack surface.
	wts := httptest.NewServer(ws.Handler())
	defer wts.Close()
	resp, err := wts.Client().Post(wts.URL+"/v1/attack/simulate", "application/json", strings.NewReader(`{"model":"lenet"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("worker-role attack endpoint = %d, want 404", resp.StatusCode)
	}
}

// TestRankShardFanout checks that a multi-worker pool fans rank rungs out
// through the shard channel and that the scores stay bit-identical to the
// serial schedule.
func TestRankShardFanout(t *testing.T) {
	body := `{"model":"lenet","rank":{"classes":2,"per_class":4,"epochs":2,"max_candidates":4},"timeout_ms":120000}`

	_, serialTS := newTestServer(t, Config{Workers: 1, CacheBytes: -1})
	serial, code := postSimulate(t, serialTS, body)
	if code != http.StatusOK {
		t.Fatalf("serial rank = %d", code)
	}

	fan, fanTS := newTestServer(t, Config{Workers: 3, CacheBytes: -1})
	fanned, code := postSimulate(t, fanTS, body)
	if code != http.StatusOK {
		t.Fatalf("fanned rank = %d", code)
	}

	if got := fan.Metrics().Counter("shard_runs"); got < 1 {
		t.Fatalf("shard_runs = %d, want >= 1", got)
	}
	sj, _ := json.Marshal(serial.Scores)
	fj, _ := json.Marshal(fanned.Scores)
	if string(sj) != string(fj) {
		t.Fatalf("fanned scores diverge from serial:\n serial: %s\n fanned: %s", sj, fj)
	}
}

// TestShutdownUnderLoadFS mirrors the in-memory drain test on the shared
// filesystem store: the in-flight job completes, queued tracked jobs are
// aborted with 503, and drain-time submissions are refused.
func TestShutdownUnderLoadFS(t *testing.T) {
	dir := t.TempDir()
	st, err := jobstore.OpenFS(dir, jobstore.Options{PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Workers: 1, Store: st, Lease: 2 * time.Second,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One slow in-flight job, two queued behind it.
	codes := make(chan int, 3)
	post := func(body string) {
		resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			codes <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	// The in-flight job must outlive the queue-fill observation below;
	// 40 epochs finishes in ~100ms on an idle box, far too fast. Match
	// TestShutdownDrainsInFlightAbortsQueued's budget.
	epochs := 1000
	if raceEnabled {
		epochs = 150
	}
	go post(fmt.Sprintf(`{"model":"lenet","rank":{"classes":2,"per_class":6,"epochs":%d,"max_candidates":1},"timeout_ms":120000}`, epochs))
	waitFor(t, "job to start", 30*time.Second, func() bool { return s.Metrics().Counter("started") == 1 })
	go post(`{"model":"lenet"}`)
	go post(`{"model":"lenet"}`)
	waitFor(t, "queue to fill", 30*time.Second, func() bool { return s.queueDepth() == 2 })

	sctx, scancel := ctxWithTimeout(2 * time.Minute)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	got := map[int]int{}
	for i := 0; i < 3; i++ {
		got[<-codes]++
	}
	if got[http.StatusOK] != 1 || got[http.StatusServiceUnavailable] != 2 {
		t.Fatalf("status mix = %v, want one 200 and two 503", got)
	}
	if c := s.Metrics().Counter("completed"); c != 1 {
		t.Fatalf("completed = %d, want 1", c)
	}
	if a := s.Metrics().Counter("aborted"); a != 2 {
		t.Fatalf("aborted = %d, want 2", a)
	}
	// The store survives the server: a fresh server on the same directory
	// sees an empty queue, not orphaned state.
	if st.Stats().Queued != 0 || st.Stats().Leased != 0 {
		t.Fatalf("store not drained: %+v", st.Stats())
	}
}

// TestOrphanedLeaseReclaimedByNewServer simulates a worker process dying
// mid-job: its lease expires and a later server on the same store directory
// re-claims and completes the job exactly once.
func TestOrphanedLeaseReclaimedByNewServer(t *testing.T) {
	dir := t.TempDir()
	opt := jobstore.Options{PollInterval: 5 * time.Millisecond}
	st, err := jobstore.OpenFS(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	req := &attackRequest{Model: "lenet", TimeoutMS: 60_000}
	payload, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	id := jobstore.NewID()
	if err := st.Submit(jobstore.Job{ID: id, Payload: payload, Deadline: time.Now().Add(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	// The doomed worker claims with a short lease and then "crashes":
	// no heartbeat, no completion.
	if _, err := st.Claim("doomed-w0", 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	second, err := jobstore.OpenFS(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	s := New(Config{Workers: 1, Store: second, Lease: 2 * time.Second,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer func() {
		sctx, scancel := ctxWithTimeout(time.Minute)
		defer scancel()
		s.Shutdown(sctx)
	}()

	var rec *jobstore.Record
	waitFor(t, "re-claimed job to finish", time.Minute, func() bool {
		rec, err = st.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		return rec.State.Terminal()
	})
	if rec.State != jobstore.StateDone {
		t.Fatalf("state = %s (err %q), want done", rec.State, rec.Err)
	}
	if rec.Attempt < 2 {
		t.Fatalf("attempt = %d, want >= 2 (a re-claim)", rec.Attempt)
	}
	if rec.Completions != 1 {
		t.Fatalf("completions = %d, want exactly 1", rec.Completions)
	}
	if !strings.HasPrefix(rec.Worker, fmt.Sprintf("p%d-", pidForTest())) {
		t.Fatalf("completing worker = %q, want this process's pool", rec.Worker)
	}
}

// TestWeightsStageObservedOnFailure: LeNet's pooled first layer is out of
// the corner-iteration algorithm's reach, so the weight stage errors — but
// its wall time must still land in the stage histogram.
func TestWeightsStageObservedOnFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ar, code := postSimulate(t, ts, `{"model":"lenet","weights":true}`)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d", code)
	}
	if ar.WeightsError == "" {
		t.Fatal("expected a weights_error for lenet's pooled first layer")
	}
	if got := s.Metrics().StageCount("weights"); got != 1 {
		t.Fatalf("weights stage count = %d, want 1 (observed on failure too)", got)
	}
	if _, ok := ar.StageMS["weights"]; !ok {
		t.Fatal("stage_ms missing the failed weights stage")
	}
}

// TestCacheKeyUsesEffectiveCap: the cache key must reflect the cap the
// solver actually ran under (server cap merged with the request), so a
// server restarted with a different -max-structures cannot replay results
// computed under the old bound.
func TestCacheKeyUsesEffectiveCap(t *testing.T) {
	base := func() *attackRequest {
		return &attackRequest{Model: "lenet", Classes: 10, MaxStructures: 100}
	}
	tight := &Server{cfg: Config{MaxStructures: 7}}
	loose := &Server{cfg: Config{MaxStructures: 0}}

	a, b := base(), base()
	a.MaxStructures = tight.solverCap(a.MaxStructures)
	b.MaxStructures = loose.solverCap(b.MaxStructures)
	if a.MaxStructures != 7 {
		t.Fatalf("effective cap = %d, want server cap 7", a.MaxStructures)
	}
	if a.cacheKey() == b.cacheKey() {
		t.Fatal("cache keys collide across different effective caps")
	}
	if !strings.HasPrefix(a.cacheKey(), "v4|") {
		t.Fatalf("cache key %q not version-bumped", a.cacheKey())
	}
	// Once resolved, a worker's own config must not re-merge the cap.
	if got := b.solverOptions().MaxStructures; got != b.MaxStructures {
		t.Fatalf("worker re-merged resolved cap: %d, want %d", got, b.MaxStructures)
	}
}
