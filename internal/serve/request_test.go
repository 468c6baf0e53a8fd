package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
)

// rejectTrace posts a trace-endpoint query with no body and requires a 400
// whose message contains want, with no job started: the query alone
// decides.
func rejectTrace(t *testing.T, s *Server, ts *httptest.Server, query, want string) {
	t.Helper()
	code, body, _ := postTrace(t, ts, query, nil)
	if code != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Fatalf("?%s: status %d body %q, want 400 mentioning %q", query, code, body, want)
	}
	if got := s.Metrics().Counter("started"); got != 0 {
		t.Fatalf("?%s: rejected request started %d jobs", query, got)
	}
}

// TestQueryRejectsMisspelledName: a typo such as tolerent=1 used to run
// the strict attack under a 200.
func TestQueryRejectsMisspelledName(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rejectTrace(t, s, ts, "inw=28&ind=1&classes=10&tolerent=1", "tolerent")
}

// TestQueryRejectsRankTopK: top_k has no query name, so rank_top_k=3 used
// to rank by top-1 under a 200.
func TestQueryRejectsRankTopK(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rejectTrace(t, s, ts, "inw=28&ind=1&classes=10&rank=1&rank_top_k=3", "rank_top_k")
}

// TestRankKnobsRequireRank: rank_* without rank=true used to run no ranking
// at all, the same silent no-op defense_* without a kind already rejects.
func TestRankKnobsRequireRank(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rejectTrace(t, s, ts, "inw=28&ind=1&classes=10&rank_epochs=3", "rank_epochs requires rank=true")
	rejectTrace(t, s, ts, "inw=28&ind=1&classes=10&rank=0&rank_seed=4", "rank_seed requires rank=true")
}

// TestUnknownModelRejectedBeforeEnqueue: an unknown model used to be
// queued and claimed by a worker before it was rejected.
func TestUnknownModelRejectedBeforeEnqueue(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate", "application/json", strings.NewReader(`{"model":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || body.String() != "unknown model \"nope\"\n" {
		t.Fatalf("status %d body %q, want 400 unknown model", resp.StatusCode, body.String())
	}
	if got := s.Metrics().Counter("started"); got != 0 {
		t.Fatalf("unknown model started %d jobs", got)
	}
}

// TestSimulateRejectsTraceFields: a simulate body that names a trace-mode
// field is a 400 even when the value is zero, as is an unknown query name.
func TestSimulateRejectsTraceFields(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, b := range []string{
		`{"model":"lenet","inw":28}`,
		`{"model":"lenet","elem":0}`,
		`{"model":"lenet","upload":{"inw":28,"ind":1,"elem":4}}`,
	} {
		if _, code := postSimulate(t, ts, b); code != http.StatusBadRequest {
			t.Errorf("simulate %s: status %d, want 400", b, code)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate?tolerant=1", "application/json", strings.NewReader(`{"model":"lenet"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("simulate ?tolerant=1: status %d, want 400", resp.StatusCode)
	}
	if got := s.Metrics().Counter("started"); got != 0 {
		t.Fatalf("rejected requests started %d jobs", got)
	}
}

// TestCancelBeforeCaptureCountsCapture: a job whose deadline passes before
// its capture is cancelled in capture, not in decode, which runs on the
// frontend and never in a simulate job.
func TestCancelBeforeCaptureCountsCapture(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, code := postSimulate(t, ts, `{"model":"alexnet","timeout_ms":1}`); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	m := s.Metrics()
	if got := m.StageCancelled("decode"); got != 0 {
		t.Fatalf("decode cancellations %d, want 0", got)
	}
	if got := m.StageCancelled("capture"); got != 1 {
		t.Fatalf("capture cancellations %d, want 1", got)
	}
}

// TestTraceAndSimulateAgree: uploading LeNet's capture and simulating LeNet
// run one pipeline, so under the same knobs they report the same attack.
func TestTraceAndSimulateAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	net := nn.LeNet(10)
	net.InitWeights(2)
	cap, err := core.Capture(net, accel.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := cap.Result.Trace.Write(&raw); err != nil {
		t.Fatal(err)
	}
	type view struct {
		Segments      []segmentJSON
		Structures    []string
		NumStructures int
		Noise         *noiseJSON
		Defense       *defenseJSON
		TraceBytes    uint64
		DetectedDF    string
	}
	project := func(code int, body []byte) any {
		if code != http.StatusOK {
			return string(body)
		}
		var ar attackResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		return view{ar.Segments, ar.Structures, ar.NumStructures, ar.Noise, ar.Defense, ar.TraceBytes, ar.DetectedDF}
	}
	for _, c := range []struct{ name, query, body string }{
		{"clean", "", `{"model":"lenet"}`},
		{"tolerant", "&tolerant=1", `{"model":"lenet","tolerant":true}`},
		{"corrupt", "&drop_rate=0.02&reorder_window=16&corrupt_seed=1", `{"model":"lenet","corrupt":{"seed":1,"drop_rate":0.02,"reorder_window":16}}`},
		{"fuse", "&defense=fuse", `{"model":"lenet","defense":{"kind":"fuse"}}`},
		{"rerand", "&defense=rerand&defense_seed=3", `{"model":"lenet","defense":{"kind":"rerand","seed":3}}`},
	} {
		tcode, tbody, _ := postTrace(t, ts, "inw=28&ind=1&classes=10"+c.query, raw.Bytes())
		resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var sbody bytes.Buffer
		sbody.ReadFrom(resp.Body)
		resp.Body.Close()
		got, want := project(tcode, tbody), project(resp.StatusCode, sbody.Bytes())
		if tcode != resp.StatusCode || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: trace %d %+v\nsimulate %d %+v", c.name, tcode, got, resp.StatusCode, want)
		}
	}
}

// FuzzBindQuery drives arbitrary query strings through the trace
// endpoint's binder and validate. Neither may panic, and any accepted
// request must survive the job-store encoding as an equal struct with an
// equal cache key. The seeds are the query strings the serve tests and
// the README send.
func FuzzBindQuery(f *testing.F) {
	const geo = "inw=28&ind=1&classes=10"
	for _, q := range []string{
		"", geo, geo + "&rank=1", geo + "&tol=0.5", geo + "&cache_bypass=1", geo + "&wait=false",
		geo + "&drop_rate=0.02&reorder_window=16&corrupt_seed=1",
		geo + "&drop_rate=2", geo + "&interference_rate=-0.5", geo + "&reorder_window=-1",
		geo + "&interference_regions=1000", geo + "&tol=NaN", geo + "&tol=Inf", geo + "&tol=-Inf",
		geo + "&tol=-1", geo + "&drop_rate=NaN", geo + "&split_rate=NaN", geo + "&interference_rate=NaN",
		"inw=99999&ind=1&classes=10", geo + "&elem=0",
		geo + "&rank=ture", geo + "&modular=ture", geo + "&tolerant=ture",
		geo + "&allow_stride_over_kernel=ture", geo + "&cache_bypass=ture",
		geo + "&tolerant=0", geo + "&tolerant=yes", geo + "&tolerant=false",
		geo + "&dataflow=os", geo + "&dataflow=ws", geo + "&dataflow=weight-stationary",
		geo + "&dataflow=systolic",
		geo + "&defense=fuse", geo + "&defense=fuse&defense_onchip_bytes=64", geo + "&defense=pad",
		geo + "&defense=rot13", geo + "&defense=dummy&defense_dummy_rate=9",
		geo + "&defense=dummy&defense_dummy_rate=-0.5", geo + "&defense=pad&defense_bucket_bytes=-1",
		geo + "&defense=fuse&defense_onchip_bytes=-1", geo + "&defense=oram&defense_oram_z=-1",
		geo + "&defense=oram&defense_oram_block=48", geo + "&defense_dummy_rate=0.5",
		geo + "&defense_seed=7", geo + "&defense=pad&defense_dummy_rate=0.5",
		geo + "&defense=dummy&defense_oram_z=4", geo + "&defense=rerand&defense_seed=3",
		geo + "&max_structures=-1", geo + "&max_return=-1", geo + "&timeout_ms=-1",
		geo + "&rank=1&rank_eta=2", geo + "&rank=1&rank_halving=1&rank_eta=100",
		geo + "&rank=1&rank_halving=1&rank_min_epochs=-2", geo + "&rank=1&rank_halving=maybe",
		geo + "&rank=1&rank_classes=2&rank_per_class=4&rank_epochs=2&rank_max_candidates=3&rank_halving=1&rank_eta=2&rank_min_epochs=1",
		geo + "&tolerent=1", geo + "&rank=1&rank_top_k=3", geo + "&rank_epochs=3",
		"wait=false", "cache_bypass=ture", "%zz&inw=1",
	} {
		f.Add(q)
	}
	var upload bytes.Buffer
	tr := &memtrace.Trace{BlockBytes: 4, Accesses: []memtrace.Access{{Cycle: 1, Addr: 0, Count: 2, Kind: memtrace.Read}}}
	if err := tr.Write(&upload); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // what r.URL.Query() makes of it
		req := &attackRequest{Upload: &uploadParams{Elem: 4}}
		opts := submitOptions{Wait: true}
		if bindQuery(q, req, &opts) != nil || req.validate() != nil {
			return
		}
		req.Upload.Raw, req.Upload.SHA256 = upload.Bytes(), "sha"
		payload, err := encodeRequest(req)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("encoded request does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", got, req)
		}
		if got.cacheKey() != req.cacheKey() {
			t.Fatalf("round trip changed the cache key:\n got %s\nwant %s", got.cacheKey(), req.cacheKey())
		}
	})
}
