package serve

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/memtrace"
)

// TestSimulateDefenseEndToEnd: the simulate endpoint accepts a defense
// spec, applies it between capture and analysis, reports the measured
// overheads, and feeds the "defense" stage metric.
func TestSimulateDefenseEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// fuse keeps the analysis alive on lenet (read-only and write-only
	// buffers survive), so the response is a 200 carrying defense stats.
	ar, code := postSimulate(t, ts, `{"model":"lenet","defense":{"kind":"fuse"}}`)
	if code != http.StatusOK {
		t.Fatalf("fuse simulate: status %d", code)
	}
	if ar.Defense == nil || ar.Defense.Kind != "fuse" {
		t.Fatalf("defense stats missing from response: %+v", ar.Defense)
	}
	if bw := ar.Defense.BandwidthOverhead; bw >= 1 || bw <= 0 {
		t.Fatalf("fusion must save bandwidth, got x%v", bw)
	}
	if _, ok := ar.StageMS["defense"]; !ok {
		t.Fatal("missing defense stage timing")
	}
	if n := s.Metrics().StageDataflowCount("defense", "output-stationary"); n == 0 {
		t.Fatal("no defense stage executions recorded")
	}

	// An undefended run must not report defense stats.
	ar, code = postSimulate(t, ts, `{"model":"lenet"}`)
	if code != http.StatusOK || ar.Defense != nil {
		t.Fatalf("undefended run: status %d, defense %+v", code, ar.Defense)
	}

	// A defense that defeats the analysis outright (pad collapses the
	// input buffer's observable size) is a 422 — the attack failed, which
	// is the defense working, not a server error.
	if _, code = postSimulate(t, ts, `{"model":"lenet","defense":{"kind":"pad"}}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("pad-defeated attack: status %d, want 422", code)
	}

	// ORAM end to end, with its controller stats surfaced.
	ar, code = postSimulate(t, ts, `{"model":"lenet","defense":{"kind":"oram","seed":3},"tolerant":true}`)
	if code == http.StatusOK {
		t.Fatal("ORAM-defended attack should not succeed")
	}
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("oram simulate: status %d, want 422", code)
	}
}

// TestTraceDefenseEndToEnd: the trace endpoint accepts the defense query
// parameters and applies the transform before analysis (the "what if the
// victim had shipped this countermeasure" replay).
func TestTraceDefenseEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := victimTraceBytes(t, accel.OutputStationary)

	ar, code, _ := postTraceJSON(t, ts, "inw=28&ind=1&classes=10&defense=fuse", raw)
	if code != http.StatusOK {
		t.Fatalf("fuse trace: status %d", code)
	}
	if ar.Defense == nil || ar.Defense.Kind != "fuse" {
		t.Fatalf("defense stats missing: %+v", ar.Defense)
	}
	if ar.Defense.OutputBlocks >= ar.Defense.InputBlocks {
		t.Fatalf("fusion did not remove traffic: %d -> %d blocks", ar.Defense.InputBlocks, ar.Defense.OutputBlocks)
	}

	// Defense knobs pass through: an explicit on-chip capacity too small to
	// fuse anything leaves the trace intact (overhead exactly 1).
	ar, code, _ = postTraceJSON(t, ts, "inw=28&ind=1&classes=10&defense=fuse&defense_onchip_bytes=64", raw)
	if code != http.StatusOK || ar.Defense == nil || ar.Defense.BandwidthOverhead != 1 {
		t.Fatalf("tiny on-chip buffer: status %d, defense %+v", code, ar.Defense)
	}

	// A defense that defeats the analysis is a 422 on this surface too.
	if code, _, _ := postTrace(t, ts, "inw=28&ind=1&classes=10&defense=pad", raw); code != http.StatusUnprocessableEntity {
		t.Fatalf("pad-defeated trace attack: status %d, want 422", code)
	}
}

// TestDefenseValidation: hostile or inconsistent defense parameters are a
// 400 on both surfaces, before any capture or analysis runs.
func TestDefenseValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	badQueries := []string{
		"defense=rot13",
		"defense=dummy&defense_dummy_rate=9",
		"defense=dummy&defense_dummy_rate=-0.5",
		"defense=pad&defense_bucket_bytes=-1",
		"defense=fuse&defense_onchip_bytes=-1",
		"defense=oram&defense_oram_z=-1",
		"defense=oram&defense_oram_block=48",
		// Cross-kind knobs: a knob without its defense would silently mint
		// a distinct cache key for an undefended run.
		"defense_dummy_rate=0.5",
		"defense_seed=7",
		"defense=pad&defense_dummy_rate=0.5",
		"defense=dummy&defense_oram_z=4",
	}
	for _, q := range badQueries {
		// Validation happens on the query string alone — no body needed.
		if code, _, _ := postTrace(t, ts, "inw=28&ind=1&classes=10&"+q, nil); code != http.StatusBadRequest {
			t.Errorf("trace ?%s: status %d, want 400", q, code)
		}
	}
	badBodies := []string{
		`{"model":"lenet","defense":{"kind":"rot13"}}`,
		`{"model":"lenet","defense":{"kind":"dummy","dummy_rate":9}}`,
		`{"model":"lenet","defense":{"kind":"oram","oram_z":-1}}`,
		`{"model":"lenet","defense":{"kind":"oram","oram_block_bytes":48}}`,
		`{"model":"lenet","defense":{"dummy_rate":0.5}}`,
		`{"model":"lenet","defense":{"kind":"fuse","bucket_bytes":4096}}`,
	}
	for _, b := range badBodies {
		if _, code := postSimulate(t, ts, b); code != http.StatusBadRequest {
			t.Errorf("simulate %s: status %d, want 400", b, code)
		}
	}
}

// TestNegativeCountValidation pins the lower-bound fix: negative
// counts and budgets are a 400 on both the query and JSON-body paths
// instead of flowing silently into the solver and trainer.
func TestNegativeCountValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{
		"max_structures=-1", "max_return=-1", "timeout_ms=-1",
	} {
		if code, _, _ := postTrace(t, ts, "inw=28&ind=1&classes=10&"+q, nil); code != http.StatusBadRequest {
			t.Errorf("trace ?%s: status %d, want 400", q, code)
		}
	}
	for _, b := range []string{
		`{"model":"lenet","max_structures":-1}`,
		`{"model":"lenet","max_return":-1}`,
		`{"model":"lenet","timeout_ms":-1}`,
		`{"model":"lenet","classes":-10}`,
		`{"model":"lenet","depth_div":-2}`,
		`{"model":"lenet","rank":{"classes":-1}}`,
		`{"model":"lenet","rank":{"per_class":-1}}`,
		`{"model":"lenet","rank":{"epochs":-1}}`,
		`{"model":"lenet","rank":{"top_k":-1}}`,
	} {
		if _, code := postSimulate(t, ts, b); code != http.StatusBadRequest {
			t.Errorf("simulate %s: status %d, want 400", b, code)
		}
	}
}

// TestDefenseSplitsCacheKey: defended and undefended runs of the same
// victim are distinct result-cache entries, and the split covers the
// defense knobs, not just the kind.
func TestDefenseSplitsCacheKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if ar, code := postSimulate(t, ts, `{"model":"lenet","defense":{"kind":"fuse"}}`); code != http.StatusOK || ar.Cached {
		t.Fatalf("first fuse simulate: status %d", code)
	}
	if ar, code := postSimulate(t, ts, `{"model":"lenet"}`); code != http.StatusOK || ar.Cached {
		t.Fatal("undefended run must not reuse the defended entry")
	}
	if ar, code := postSimulate(t, ts, `{"model":"lenet","defense":{"kind":"fuse"}}`); code != http.StatusOK || !ar.Cached {
		t.Fatal("repeated fuse simulate must be served from cache")
	}
	if ar, code := postSimulate(t, ts, `{"model":"lenet","defense":{"kind":"fuse","onchip_bytes":64}}`); code != http.StatusOK || ar.Cached {
		t.Fatal("different on-chip capacity must be a distinct cache entry")
	}
	if hits := s.Metrics().Counter("cache_hits"); hits != 1 {
		t.Fatalf("recorded %d cache hits, want 1", hits)
	}
}

// TestTraceORAMHostileExtentsRejectedFast: an 87-byte upload of three
// records — a 13-block read, then a write and a read of 2^24 blocks each —
// asks the ORAM defense for 6,710,889,000 physical transfers. It is a 422
// within a second, refused before the defense builds anything the size of
// those extents.
func TestTraceORAMHostileExtentsRejectedFast(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := &memtrace.Trace{BlockBytes: 64, Accesses: []memtrace.Access{
		{Cycle: 0, Addr: 0, Count: 13, Kind: memtrace.Read},
		{Cycle: 1, Addr: 1 << 32, Count: 1 << 24, Kind: memtrace.Write},
		{Cycle: 2, Addr: 1 << 33, Count: 1 << 24, Kind: memtrace.Read},
	}}
	var raw bytes.Buffer
	if err := tr.Write(&raw); err != nil {
		t.Fatal(err)
	}
	if raw.Len() != 87 {
		t.Fatalf("upload is %d bytes, want 87", raw.Len())
	}
	start := time.Now()
	code, body, _ := postTrace(t, ts, "inw=28&ind=1&classes=10&defense=oram", raw.Bytes())
	elapsed := time.Since(start)
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "would emit 6710889000 physical transfers") {
		t.Fatalf("status %d, body %s; want 422 naming the transfer count", code, body)
	}
	if elapsed > time.Second {
		t.Fatalf("refusal took %v, want well under a second", elapsed)
	}
	t.Logf("422 in %v", elapsed)
}
