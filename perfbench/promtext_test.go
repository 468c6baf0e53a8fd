package main

import (
	"os"
	"strings"
	"testing"
)

// testdata/metrics.prom is a /metrics scrape captured from revcnnd after a
// handful of uploads, simulate requests and cache hits.
func TestParsePromSample(t *testing.T) {
	f, err := os.Open("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.bad != 0 {
		t.Errorf("%d sample lines failed to parse", p.bad)
	}
	for _, c := range []struct {
		name   string
		labels []string
	}{
		{"revcnnd_jobs_completed_total", nil},
		{"revcnnd_cache_hits_total", nil},
		{"revcnnd_store_retried_total", nil},
		{"revcnnd_queue_wait_seconds_sum", nil},
		{"revcnnd_lease_age_seconds_count", nil},
		{"revcnnd_stage_seconds_sum", []string{`stage="decode"`}},
		{"revcnnd_stage_seconds_sum", []string{`stage="analyze"`}},
		{"revcnnd_stage_seconds_bucket", []string{`le="+Inf"`, `stage="solve"`}},
		{"revcnnd_stage_dataflow_seconds_total", []string{`stage="analyze"`, `dataflow="output-stationary"`}},
	} {
		if _, ok := p.get(c.name, c.labels...); !ok {
			t.Errorf("series %s not found", seriesKey(c.name, c.labels...))
		}
	}
	done, _ := p.get("revcnnd_jobs_completed_total")
	hits, _ := p.get("revcnnd_cache_hits_total")
	if done < 1 || hits < 1 {
		t.Errorf("sample has %g completed jobs and %g cache hits; want both > 0", done, hits)
	}
	// Label order in the query does not matter.
	a, _ := p.get("revcnnd_stage_seconds_bucket", `stage="solve"`, `le="+Inf"`)
	b, _ := p.get("revcnnd_stage_seconds_bucket", `le="+Inf"`, `stage="solve"`)
	if a != b {
		t.Errorf("label order changed the lookup: %g vs %g", a, b)
	}
}

func TestParsePromTolerant(t *testing.T) {
	in := strings.Join([]string{
		"# HELP x_total A counter.",
		"# TYPE x_total counter",
		"x_total 3",
		`y{b="2",a="quote \" , inside"} 1.5 1700000000`,
		"garbage line without value",
		`z{unterminated="x} 4`,
		"w NaNish",
		"",
		"v 2e-3",
	}, "\n")
	p, err := parseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := p.get("x_total"); !ok || v != 3 {
		t.Errorf("x_total = %g, %v", v, ok)
	}
	if v, ok := p.get("y", `a="quote \" , inside"`, `b="2"`); !ok || v != 1.5 {
		t.Errorf("y = %g, %v", v, ok)
	}
	if v, ok := p.get("v"); !ok || v != 2e-3 {
		t.Errorf("v = %g, %v", v, ok)
	}
	if p.bad != 3 {
		t.Errorf("bad = %d, want 3", p.bad)
	}
	// A series the server stopped exporting is absent, not an error.
	if _, ok := p.get("revcnnd_stage_seconds_sum", `stage="decode"`); ok {
		t.Error("absent series reported present")
	}
	if d, ok := promDelta(p, p, "missing"); ok || d != 0 {
		t.Errorf("delta of absent series = %g, %v", d, ok)
	}
	var nilSet *promSet
	if _, ok := nilSet.get("x_total"); ok {
		t.Error("nil scrape reported a series")
	}
}
