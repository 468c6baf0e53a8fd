package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// program emits in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i])
		}
	}
}

// TestSmoke runs every workload briefly, traced, and checks that each
// emits every named metric and passes its output checks. A traced run
// alternates untraced and traced passes, so it measures both metric sets.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	bin := filepath.Join(t.TempDir(), "revcnnd")
	build := exec.Command("go", "build", "-o", bin, "cnnrev/cmd/revcnnd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build revcnnd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			cfg := runConfig{workload: w, seed: 3, seconds: 0.5, traced: true, revcnnd: bin, setupReps: 1}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.failures) > 0 {
				t.Fatalf("output checks failed: %v", res.failures)
			}
			for _, d := range endToEnd {
				v, ok := res.e2e[d.name]
				if !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.name, v, ok)
				}
			}
			line, absent := finish(cfg, res)
			if !line.Correct || line.Attempted < 1 {
				t.Errorf("final line %+v", line)
			}
			for _, d := range perLayer {
				if _, ok := line.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			if len(absent) == len(perLayer) {
				t.Error("no per-layer metric measured")
			}
			if _, ok := res.counts["trace_digest"]; !ok {
				t.Error("no trace digest recorded")
			}
			if len(res.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}
