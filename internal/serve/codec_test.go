package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cnnrev/internal/core"
	"cnnrev/internal/jobstore"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// goldenTracePaths lists the structure attack's 12 golden traces: four
// victims under three dataflows.
func goldenTracePaths(tb testing.TB) []string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "structrev", "testdata", "golden", "*.trace"))
	if err != nil || len(paths) != 12 {
		tb.Fatalf("golden traces: %v (%d found, want 12)", err, len(paths))
	}
	return paths
}

// encodeRequestWithTrace is the job payload encoder from when the frontend
// decoded each upload: the request's JSON behind its length, then the
// decoded trace re-encoded with Trace.Write. It is the oracle for the
// payload the frontend now builds from the upload's own bytes.
func encodeRequestWithTrace(req *attackRequest, tr *memtrace.Trace) ([]byte, error) {
	hb, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(binary.LittleEndian.AppendUint32(nil, uint32(len(hb))))
	buf.Write(hb)
	if err := tr.Write(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestUploadPayloadMatchesTraceEncoding: for each golden trace, the payload
// the trace endpoint enqueues equals, byte for byte, what the old encoder
// made of the decoded trace, and the worker decodes it back to the same
// request and trace.
func TestUploadPayloadMatchesTraceEncoding(t *testing.T) {
	s, ts := newTestServer(t, Config{Role: RoleFrontend, QueueDepth: 16})
	const query = "inw=28&ind=1&classes=10&tolerant=1&drop_rate=0.01&reorder_window=4&corrupt_seed=3&defense=pad&max_return=5"
	for _, path := range goldenTracePaths(t) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/attack/trace?wait=false&"+query, "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d, want 202", path, resp.StatusCode)
		}
		c, err := s.Store().Claim("test", time.Minute)
		if err != nil {
			t.Fatal(err)
		}

		q, _ := url.ParseQuery(query)
		want := &attackRequest{Upload: &uploadParams{Elem: 4}}
		if err := bindQuery(q, want); err != nil {
			t.Fatal(err)
		}
		if err := want.validate(); err != nil {
			t.Fatal(err)
		}
		want.MaxStructures = s.solverCap(want.MaxStructures)
		sum := sha256.Sum256(raw)
		want.Upload.SHA256 = hex.EncodeToString(sum[:])
		tr, err := memtrace.DecodeTrace(raw)
		if err != nil {
			t.Fatal(err)
		}
		wantPayload, err := encodeRequestWithTrace(want, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.Payload, wantPayload) {
			t.Fatalf("%s: payload (%d bytes) differs from the decode-and-re-encode payload (%d bytes)", path, len(c.Payload), len(wantPayload))
		}

		got, err := decodeRequest(c.Payload)
		if err != nil {
			t.Fatal(err)
		}
		gotTrace, err := decodeUpload(got)
		if err != nil {
			t.Fatal(err)
		}
		want.Upload.Raw = raw
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotTrace, tr) {
			t.Fatalf("%s: the worker decodes a different request or trace", path)
		}
		if err := s.Store().Complete(c.ID, "test", c.Attempt, nil, "done"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCachedBodyMatchesRemarshal: the worker's cached body is what the
// frontend used to make of the relayed body — decode it, set Cached,
// marshal again — on responses that carry every optional field.
func TestCachedBodyMatchesRemarshal(t *testing.T) {
	acc, acc2, truth := 0.1+0.2, 1e-7, 3
	full := &attackResponse{
		JobID: "j0123456789abcdef", Mode: "simulate", Model: "lenet<&>",
		Tolerant: true, Corrupted: true,
		Defense:    &defenseJSON{Kind: "oram", BandwidthOverhead: 144.75, LatencyOverhead: 1.0 / 3, InputBlocks: 14, OutputBlocks: 2027, ORAMLevels: 9, ORAMMaxStash: 4},
		Dataflow:   "weight-stationary",
		DetectedDF: "ambiguous",
		Noise:      &noiseJSON{InterferenceRegions: 2, InterferenceAccesses: 17, WriteHoleFrac: 0.015625, ROHoleFrac: 2.5e-5, DroppedDeps: 1},
		Segments: []segmentJSON{
			{Index: 0, Kind: "conv", WeightsBytes: 2000, OFMBytes: 11520, Cycles: 123456, Inputs: []segInputJSON{{Producer: -1, Bytes: 3136, Adjacent: true}}},
			{Index: 1, Kind: "fc", WeightsBytes: 1 << 40, OFMBytes: 40},
		},
		NumStructures: 27,
		Structures:    []string{"conv 28x28x1 -> 24x24x20 f5 s1 p0", "\"quoted\"   \x01"},
		Truncated:     true,
		TruthIndex:    &truth,
		Scores: []scoreJSON{
			{Candidate: 3, Accuracy: &acc, IsTruth: true, Epochs: 2},
			{Candidate: 0, Accuracy: nil, Error: "training failed: NaN loss"},
			{Candidate: 1, Accuracy: &acc2, Epochs: 1},
		},
		Rank: &rankMetaJSON{Halving: true, TotalEpochs: 9, Skipped: 2, Rungs: []rungJSON{
			{TargetEpochs: 1, Candidates: 3, Epochs: 3, Eliminated: 2},
			{TargetEpochs: 3, Candidates: 1, Epochs: 2},
		}},
		Weights:      &weightsJSON{Filters: 32, MaxRatioErr: 3.0517578125e-05, ZerosActual: 200, ZerosDetected: 199, ZeroErrors: 1, Queries: 123456789},
		WeightsError: "weight attack requires simulate mode",
		TraceBytes:   1 << 33,
		StageMS:      map[string]int64{"solve": 3, "analyze": 1, "capture": 12, "rank": 40000},
	}
	bare := &attackResponse{JobID: "j1", Mode: "trace", StageMS: map[string]int64{}}
	for name, resp := range map[string]*attackResponse{"full": full, "bare": bare} {
		env := (&Server{}).envelope(resp, http.StatusOK)
		if !env.Cacheable || resp.Cached {
			t.Fatalf("%s: cacheable %v, response left with cached %v", name, env.Cacheable, resp.Cached)
		}
		if want, _ := json.Marshal(resp); !bytes.Equal(env.Body, want) {
			t.Fatalf("%s: body differs from the marshaled response", name)
		}
		var relayed attackResponse
		if err := json.Unmarshal(env.Body, &relayed); err != nil {
			t.Fatal(err)
		}
		relayed.Cached = true
		want, err := json.Marshal(&relayed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(env.Cached, want) {
			t.Fatalf("%s: cached body\n got %s\nwant %s", name, env.Cached, want)
		}
	}
	// A partial result is not cacheable and carries no cached body.
	partial := *bare
	partial.Partial = true
	if env := (&Server{}).envelope(&partial, http.StatusOK); env.Cacheable || env.Cached != nil {
		t.Fatalf("partial result is cacheable: %+v", env)
	}
}

// envelopeFrame returns the frame of env, for seeds.
func envelopeFrame(env resultEnvelope) []byte { return encodeEnvelope(&env) }

// FuzzDecodeEnvelope: no byte string makes decodeEnvelope panic — every
// prefix of a valid frame and every length past the end is an error — and
// any envelope survives encodeEnvelope and decodeEnvelope unchanged.
func FuzzDecodeEnvelope(f *testing.F) {
	done := envelopeFrame(resultEnvelope{Status: 200, Cacheable: true, Body: []byte(`{"mode":"trace"}`), Cached: []byte(`{"mode":"trace","cached":true}`)})
	for _, frame := range [][]byte{
		done,
		envelopeFrame(resultEnvelope{Status: 200, Body: []byte(`{"partial":true}`)}),
		envelopeFrame(resultEnvelope{Status: 422, ErrMsg: "structrev: no candidate structure"}),
		envelopeFrame(resultEnvelope{}),
		[]byte(`{"status":200,"body":{},"cacheable":true}`),            // a JSON envelope
		{envelopeVersion, 0, 0x90, 0x03, 0xff, 0xff, 0xff, 0xff, 0x0f}, // a length past the end
	} {
		f.Add(frame, 200, false, "", []byte(nil), []byte(nil))
	}
	for i := range done {
		f.Add(done[:i], 504, true, "timeout", []byte("{}"), []byte(`{"cached":true}`))
	}
	f.Fuzz(func(t *testing.T, data []byte, status int, cacheable bool, errMsg string, body, cached []byte) {
		if env, err := decodeEnvelope(data); err == nil {
			again, err := decodeEnvelope(encodeEnvelope(env))
			if err != nil || !sameEnvelope(again, env) {
				t.Fatalf("decoded envelope %+v does not round-trip: %+v, %v", env, again, err)
			}
		}
		if !cacheable {
			cached = nil
		}
		env := &resultEnvelope{Status: status, Cacheable: cacheable, ErrMsg: errMsg, Body: body, Cached: cached}
		frame := encodeEnvelope(env)
		got, err := decodeEnvelope(frame)
		if err != nil || !sameEnvelope(got, env) {
			t.Fatalf("envelope %+v does not round-trip: %+v, %v", env, got, err)
		}
		for i := range frame {
			if _, err := decodeEnvelope(frame[:i]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte frame decodes", i, len(frame))
			}
		}
	})
}

func sameEnvelope(a, b *resultEnvelope) bool {
	return a.Status == b.Status && a.Cacheable == b.Cacheable && a.ErrMsg == b.ErrMsg &&
		bytes.Equal(a.Body, b.Body) && bytes.Equal(a.Cached, b.Cached)
}

// TestTraceContentLengthBuysNoMemory: a Content-Length claim sizes the
// payload buffer only up to 1 MiB, so a 100-byte upload that claims 64 MiB
// is rejected without the memory it claimed.
func TestTraceContentLengthBuysNoMemory(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	// A header that declares a million records, then 76 bytes of them.
	body := make([]byte, 100)
	binary.LittleEndian.PutUint64(body[0:8], 0xC99A7E01)
	binary.LittleEndian.PutUint64(body[8:16], 64)
	binary.LittleEndian.PutUint64(body[16:24], 1<<20)
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/attack/trace?inw=28&ind=1&classes=10", bytes.NewReader(body))
		req.ContentLength = 64 << 20
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d (%s), want 400", rec.Code, rec.Body)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 2<<20 {
		t.Fatalf("a 100-byte upload claiming 64 MiB allocated %d bytes, want under 2 MiB", least)
	}
}

// TestRenderedStructuresUnchanged: memoizing each config's string changes
// no rendered structure. Every candidate of four golden traces renders as
// its weighted configs' strings joined by "; ".
func TestRenderedStructuresUnchanged(t *testing.T) {
	for _, c := range []struct {
		file             string
		inW, inD, labels int
		modular          bool
	}{
		{"lenet.trace", 28, 1, 10, false},
		{"convnet.ws.trace", 32, 3, 10, false},
		{"alexnet.rs.trace", 227, 3, 1000, false},
		{"squeezenet.trace", 227, 3, 1000, true},
	} {
		raw, err := os.ReadFile(filepath.Join("..", "structrev", "testdata", "golden", c.file))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := memtrace.DecodeTrace(raw)
		if err != nil {
			t.Fatal(err)
		}
		opt := structrev.DefaultOptions()
		opt.IdenticalModules = c.modular
		in := core.TraceInput{Input: nn.Shape{C: c.inD, H: c.inW, W: c.inW}, ElemBytes: 4, Classes: c.labels}
		rep, err := core.AttackTrace(context.Background(), tr, in, opt, core.StructureAttackSpec{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		var resp attackResponse
		fillStructureResult(&resp, rep, len(rep.Structures))
		if len(resp.Structures) != len(rep.Structures) || len(rep.Structures) == 0 {
			t.Fatalf("%s: rendered %d of %d structures", c.file, len(resp.Structures), len(rep.Structures))
		}
		for i := range rep.Structures {
			var parts []string
			for _, cfg := range rep.Structures[i].WeightedConfigs() {
				parts = append(parts, cfg.String())
			}
			if want := strings.Join(parts, "; "); resp.Structures[i] != want {
				t.Fatalf("%s: structure %d renders as\n%s\nwant\n%s", c.file, i, resp.Structures[i], want)
			}
		}
	}
}

// TestCachingFrontendNonCachingWorker: over a shared store, a frontend that
// caches relays results from a worker that does not, and still caches
// them, because every worker ships the cached body of a cacheable result.
func TestCachingFrontendNonCachingWorker(t *testing.T) {
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
	_, ts := newTestServer(t, Config{Role: RoleFrontend, Store: front})
	newTestServer(t, Config{Role: RoleWorker, Store: back, CacheBytes: -1, Lease: 2 * time.Second})

	raw, _ := lenetTraceBytes(t)
	const q = "inw=28&ind=1&classes=10"
	code, first, marker := postTrace(t, ts, q, raw)
	if code != http.StatusOK || marker != "" {
		t.Fatalf("first upload: status %d marker %q", code, marker)
	}
	code, second, marker := postTrace(t, ts, q, raw)
	if code != http.StatusOK || marker != "hit" {
		t.Fatalf("second upload: status %d marker %q, want 200 hit", code, marker)
	}
	want := bytes.Replace(first, []byte(`"mode":"trace"`), []byte(`"mode":"trace","cached":true`), 1)
	if !bytes.Equal(second, want) {
		t.Fatalf("cached body diverges from the original beyond the cached flag:\n first: %s\nsecond: %s", first, second)
	}
}
