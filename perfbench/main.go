// Command perfbench is the repository's benchmark. It runs one workload of
// the attack pipeline, in-process or through revcnnd, checks every job's
// output, and prints the workload's metrics as one JSON object on its last
// line of standard output.
//
//	perfbench -workload clean-dataflows -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef is a metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, per BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"peak_heap_mb", "MB"},
	{"server_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, per BENCHMARK.json. Names
// ending in a count are deterministic: a pure speed-up leaves them
// identical.
var perLayer = []metricDef{
	{"accel.capture_ms", "ms"},
	{"accel.capture_share", "ratio"},
	{"accel.ns_per_kcycle", "ns"},
	{"accel.alloc_mb", "MB"},
	{"accel.sim_kcycles", "kcycles"},
	{"accel.records", "count"},
	{"defense.ms", "ms"},
	{"defense.bandwidth_x", "ratio"},
	{"corrupt.ms", "ms"},
	{"corrupt.alloc_mb", "MB"},
	{"structrev.analyze_ms", "ms"},
	{"structrev.analyze_tolerant_ms", "ms"},
	{"structrev.analyze_ns_per_record", "ns"},
	{"structrev.analyze_alloc_mb", "MB"},
	{"structrev.detect_ms", "ms"},
	{"structrev.solve_ms", "ms"},
	{"structrev.candidates", "count"},
	{"structrev.truncated_jobs", "count"},
	{"core.rank_ms", "ms"},
	{"core.rank_ms_per_epoch", "ms"},
	{"core.rank_cpu_util", "ratio"},
	{"core.rank_alloc_mb", "MB"},
	{"core.rank_epochs", "count"},
	{"core.rank_rungs", "count"},
	{"weightrev.attack_ms", "ms"},
	{"weightrev.ns_per_query", "ns"},
	{"weightrev.cpu_util", "ratio"},
	{"weightrev.queries", "count"},
	{"memtrace.decode_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.lease_age_ms", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.small_nonanalysis_frac", "ratio"},
	{"serve.rejected", "count"},
	{"jobstore.retried", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.cpu_util", "ratio"},
	{"trace.speed_ratio", "ratio"},
}

var workloads = []string{"clean-dataflows", "noisy-probe", "rank-weights", "serve-mix"}

// runConfig is one invocation's settings.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	revcnnd   string
	setupReps int // set-ups per run; setup_s takes their median
}

// runResult is what a workload run measured.
type runResult struct {
	attempted int
	failures  []string
	e2e       map[string]float64
	raw       map[string]float64 // end-to-end times before speed normalization
	layer     map[string]float64
	repeats   map[string]summary
	counts    map[string]any
	extra     map[string]any
	spans     []span
}

func newRunResult() *runResult {
	return &runResult{
		e2e: map[string]float64{}, raw: map[string]float64{}, layer: map[string]float64{},
		repeats: map[string]summary{}, counts: map[string]any{}, extra: map[string]any{},
	}
}

func (r *runResult) fail(msgs ...string) { r.failures = append(r.failures, msgs...) }

// metricOut is one metric in the final line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same job list and inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	revcnnd := flag.String("revcnnd", "", "path of a built revcnnd binary (serve-mix)")
	out := flag.String("out", "", "directory for the results record and spans (empty: none)")
	commit := flag.String("commit", "", "git commit recorded in the results record")
	flag.Parse()

	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		revcnnd: *revcnnd, setupReps: 3,
	}
	host := readHost(*commit, *seed)
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, absent := finish(cfg, res)
	report(os.Stdout, cfg, host, res, line, absent)
	if *out != "" {
		if err := writeRecord(*out, cfg, host, res, line, absent); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: results record:", err)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	switch cfg.workload {
	case "clean-dataflows", "noisy-probe", "rank-weights":
		return runInproc(ctx, cfg)
	case "serve-mix":
		return runServeMix(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
}

// finish assembles the final line: every end-to-end metric of an untraced
// run, every per-layer metric of a traced one. A per-layer metric whose
// layer the workload never calls reads 0 and is listed as absent.
func finish(cfg runConfig, res *runResult) (finalLine, []string) {
	line := finalLine{Attempted: res.attempted, Failed: len(res.failures), Metrics: map[string]metricOut{}}
	defs, vals := endToEnd, res.e2e
	if cfg.traced {
		defs, vals = perLayer, res.layer
		for k, v := range res.counts {
			if f, ok := v.(float64); ok {
				vals[k] = f
			} else if n, ok := v.(int); ok {
				vals[k] = float64(n)
			}
		}
	}
	var absent []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			absent = append(absent, d.name)
			v = 0
			if !cfg.traced {
				res.fail(fmt.Sprintf("end-to-end metric %s was not measured", d.name))
				line.Failed = len(res.failures)
			}
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	line.Failed = min(line.Failed, line.Attempted)
	line.Correct = len(res.failures) == 0
	return line, absent
}

// report prints the human-readable summary that precedes the final line.
func report(f *os.File, cfg runConfig, host hostInfo, res *runResult, line finalLine, absent []string) {
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "perfbench %s seed=%d seconds=%g %s  host: nproc=%d GOMAXPROCS=%d %s %q commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.Commit)
	names := make([]string, 0, len(line.Metrics))
	for k := range line.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := line.Metrics[k]
		extra := ""
		if s, ok := res.repeats[k]; ok && s.N > 1 {
			extra = fmt.Sprintf("  (repeats: median %.4g, q1 %.4g, q3 %.4g, n=%d)", s.Median, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(f, "  %-34s %14.6g %-8s%s\n", k, m.Value, m.Unit, extra)
	}
	if len(absent) > 0 {
		fmt.Fprintf(f, "  absent on this workload (reported as 0): %s\n", strings.Join(absent, ", "))
	}
	fmt.Fprintf(f, "  fail_frac %.6g (%d failed of %d attempted)\n", float64(line.Failed)/float64(line.Attempted), line.Failed, line.Attempted)
	for i, msg := range res.failures {
		if i == 10 {
			fmt.Fprintf(f, "  ... %d more failures\n", len(res.failures)-10)
			break
		}
		fmt.Fprintf(f, "  FAIL %s\n", msg)
	}
	if len(res.raw) > 0 {
		rk := make([]string, 0, len(res.raw))
		for k := range res.raw {
			rk = append(rk, k)
		}
		sort.Strings(rk)
		var raw []string
		for _, k := range rk {
			raw = append(raw, fmt.Sprintf("%s=%.4g", k, res.raw[k]))
		}
		fmt.Fprintf(f, "  raw (before speed normalization): %s\n", strings.Join(raw, " "))
	}
	keys := make([]string, 0, len(res.counts))
	for k := range res.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var inv []string
	for _, k := range keys {
		inv = append(inv, fmt.Sprintf("%s=%v", k, res.counts[k]))
	}
	fmt.Fprintf(f, "  invariants: %s\n", strings.Join(inv, " "))
	if ls, ok := res.extra["layer_shares"].([]layerShare); ok {
		for _, l := range ls {
			fmt.Fprintf(f, "  layer %-10s self %10.1f ms  share %5.1f%%\n", l.Layer, l.SelfMS, 100*l.Share)
		}
	}
	if vl, ok := res.extra["victim_layers"].(map[string][]victimRow); ok {
		for _, model := range []string{"alexnet", "squeezenet"} {
			for _, r := range vl[model] {
				fmt.Fprintf(f, "  %s %-14s %-7s cycles %10d records %7d configs %3d host %8.2f ms\n",
					model, r.Name, r.Kind, r.Cycles, r.Records, r.ConfigsKept, r.HostMS)
			}
		}
	}
}

// writeRecord writes the run's results record, and its spans when traced,
// into dir.
func writeRecord(dir string, cfg runConfig, host hostInfo, res *runResult, line finalLine, absent []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.traced {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace)
	rec := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"host":       host,
		"workload":   cfg.workload,
		"seconds":    cfg.seconds,
		"traced":     cfg.traced,
		"result":     line,
		"fail_frac":  float64(line.Failed) / float64(line.Attempted),
		"failures":   res.failures,
		"repeats":    res.repeats,
		"raw":        res.raw,
		"invariants": res.counts,
		"absent":     absent,
		"details":    res.extra,
	}
	if cfg.traced {
		p := filepath.Join(dir, base+".spans.jsonl")
		if err := writeSpans(p, res.spans); err != nil {
			return err
		}
		rec["spans"] = p
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), append(b, '\n'), 0o644)
}
