package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

type jobKind int

const (
	structJob jobKind = iota
	rankJob
	weightJob
)

// job is one unit of adversary work in an in-process workload. A rank job
// ranks the candidates of the latest structure job of the same pass.
type job struct {
	name string
	kind jobKind
	v    *victim
	spec structSpec
	rank rankSpec
	wv   *weightVictim
}

// inprocWorkload is a fixed job list run by one closed-loop client.
type inprocWorkload struct {
	jobs []job
	// profile lists the models of the victim-layer report (traced run).
	profile []string
}

// weightRatioBound is the paper's precision bound on recovered w/b ratios.
const weightRatioBound = 1.0 / 1024

// buildInproc constructs a workload's victims and job list from its seed.
func buildInproc(name string, seed int64) (*inprocWorkload, error) {
	victims := map[string]*victim{}
	get := func(model string, depthDiv int) (*victim, error) {
		key := fmt.Sprintf("%s/%d", model, depthDiv)
		if v := victims[key]; v != nil {
			return v, nil
		}
		v, err := newVictim(model, depthDiv, seed)
		victims[key] = v
		return v, err
	}
	w := &inprocWorkload{}
	addStruct := func(label, model string, depthDiv int, s structSpec) error {
		v, err := get(model, depthDiv)
		if err != nil {
			return err
		}
		s.seed = seed
		w.jobs = append(w.jobs, job{name: label, kind: structJob, v: v, spec: s})
		return nil
	}
	switch name {
	case "clean-dataflows":
		// AlexNet runs at half width, and SqueezeNet (which loses the truth
		// at half width) output-stationary only: at full size, or with all
		// three SqueezeNet dataflows, the captures take most of a pass and
		// leave too few passes per run for steady per-job medians.
		for _, m := range []struct {
			label, model string
			depthDiv     int
			dataflows    []string
		}{
			{"lenet", "lenet", 1, allDataflows},
			{"convnet", "convnet", 1, allDataflows},
			{"alexnet-div2", "alexnet", 2, allDataflows},
			{"squeezenet", "squeezenet", 1, []string{"os"}},
			{"nin", "nin", 1, allDataflows},
		} {
			for _, df := range m.dataflows {
				if err := addStruct(m.label+"/"+df, m.model, m.depthDiv, structSpec{dataflow: df}); err != nil {
					return nil, err
				}
			}
		}
		w.profile = []string{"alexnet", "squeezenet"}
	case "noisy-probe":
		// The probe noise and the defense are part of each job's definition:
		// their seed is fixed, so every workload seed corrupts identically
		// and every job keeps (or, defended, hides) the truth.
		const noiseSeed = 1
		noisy := []struct {
			label, model string
			depthDiv     int
			s            structSpec
		}{
			{"lenet/interference", "lenet", 1, structSpec{interference: 0.05, reorder: 16}},
			{"convnet/interference", "convnet", 1, structSpec{interference: 0.05, reorder: 16}},
			{"alexnet-div4/interference", "alexnet", 4, structSpec{interference: 0.05, reorder: 16}},
			{"squeezenet/interference", "squeezenet", 1, structSpec{interference: 0.05, reorder: 16}},
			{"lenet/drop", "lenet", 1, structSpec{drop: 0.01, reorder: 16}},
			{"convnet/drop", "convnet", 1, structSpec{drop: 0.01, reorder: 16}},
			{"lenet/oram", "lenet", 1, structSpec{defense: "oram", tolerant: true}},
			{"convnet/oram", "convnet", 1, structSpec{defense: "oram", tolerant: true}},
		}
		for _, n := range noisy {
			n.s.noiseSeed = noiseSeed
			if err := addStruct(n.label, n.model, n.depthDiv, n.s); err != nil {
				return nil, err
			}
		}
	case "rank-weights":
		if err := addStruct("lenet/structure", "lenet", 1, structSpec{dataflow: "os"}); err != nil {
			return nil, err
		}
		// The ranking seed is part of the rank jobs' definition: which
		// candidates survive the halving rungs, and so what the job costs,
		// depends on it, so every workload seed ranks with the same one.
		const rankSeed = 1
		w.jobs = append(w.jobs,
			job{name: "lenet/rank-halving", kind: rankJob, rank: rankSpec{halving: true, classes: 4, perClass: rankPerClass, epochs: rankEpochs, seed: rankSeed}},
			job{name: "lenet/rank-flat", kind: rankJob, rank: rankSpec{classes: 4, perClass: rankPerClass, epochs: rankEpochs, maxCandidates: 4, seed: rankSeed}},
		)
		for k := int64(0); k < 3; k++ {
			w.jobs = append(w.jobs, job{
				name: fmt.Sprintf("prunedconv1/weights-%d", k), kind: weightJob,
				wv: newWeightVictim(weightFilters, 0.25, seed*3+k),
			})
		}
	default:
		return nil, fmt.Errorf("unknown in-process workload %q", name)
	}
	return w, nil
}

// allDataflows names the output-, weight- and row-stationary schedules.
var allDataflows = []string{"os", "ws", "rs"}

// The rank-weights jobs are sized so a pass takes about 1.5 s at the
// reference speed: a 20 s measured phase then holds eight or more passes,
// and each job's median over them rides out the host's bursts of contention.
const (
	rankPerClass  = 6  // training samples per class, both rank jobs
	rankEpochs    = 8  // full epoch budget, both rank jobs
	weightFilters = 32 // filters of each PrunedConv1 victim
)

// jobRecord is the part of a job's outcome that must not change between
// passes or between commits: the benchmark's invariance guard compares it.
type jobRecord struct {
	Job         string `json:"job"`
	Candidates  int    `json:"candidates,omitempty"`
	TruthIndex  int    `json:"truth_index"`
	Segments    int    `json:"segments,omitempty"`
	TraceBytes  uint64 `json:"trace_bytes,omitempty"`
	ConfigsKept []int  `json:"configs_kept,omitempty"`
	Detected    string `json:"detected_dataflow,omitempty"`
	Refused     bool   `json:"analysis_refused,omitempty"`
	Truncated   bool   `json:"truncated,omitempty"`
	Top1        int    `json:"top1,omitempty"`
	Top1AccBits uint64 `json:"top1_acc_bits,omitempty"`
	Epochs      int    `json:"epochs,omitempty"`
	Rungs       int    `json:"rungs,omitempty"`
	Queries     int    `json:"queries,omitempty"`
	ZeroErrors  int    `json:"zero_errors,omitempty"`
	MaxRatioErr uint64 `json:"max_ratio_err_bits,omitempty"`
}

func (r jobRecord) key() string { return fmt.Sprintf("%+v", r) }

// jobTracing carries a traced pass's tracer and the job's root span.
type jobTracing struct {
	tr   *tracer
	root int
	job  int
}

// runJob executes one job. last is the latest structure outcome of the
// pass (the input of rank jobs); a structure job returns its own.
func runJob(ctx context.Context, j *job, last *structOutcome, jt *jobTracing) (jobRecord, *structOutcome, error) {
	rec := jobRecord{Job: j.name, TruthIndex: -1}
	switch j.kind {
	case structJob:
		analyze := "analyze"
		if j.spec.tolerant || j.spec.attackSpec().Corrupt.Enabled() {
			analyze = "analyze_tolerant"
		}
		var onStage func(string, time.Duration)
		var mark probe
		lastStage := ""
		if jt != nil {
			mark = readProbe()
			onStage = func(stage string, d time.Duration) {
				now := readProbe()
				from := mark
				from.wall = now.wall.Add(-d)
				if stage == "analyze" {
					stage = analyze
				}
				jt.tr.add(jt.root, jt.job, stage, from, now)
				mark, lastStage = now, stage
			}
		}
		so, err := runStructure(ctx, j.v, j.spec, onStage)
		switch {
		case err != nil && j.spec.defended() && ctx.Err() == nil:
			// The defense left the analysis nothing it accepts: the
			// verdict the defended jobs are there to show. The time since
			// the last completed stage went into the refused analysis.
			if jt != nil && (lastStage == "defense" || lastStage == "corrupt") {
				jt.tr.add(jt.root, jt.job, analyze, mark, readProbe())
			}
			rec.Refused = true
			return rec, nil, nil
		case err != nil:
			rec.Truncated = isTruncated(err)
			return rec, nil, err
		}
		rec.Candidates, rec.TruthIndex, rec.Segments = so.candidates, so.truthIndex, so.segments
		rec.TraceBytes, rec.ConfigsKept, rec.Detected = so.traceBytes, so.configsKept, so.detected
		return rec, so, nil
	case rankJob:
		if last == nil {
			return rec, nil, fmt.Errorf("no structure report to rank")
		}
		var from probe
		if jt != nil {
			from = readProbe()
		}
		ro := runRank(ctx, last, j.rank)
		if jt != nil {
			jt.tr.add(jt.root, jt.job, "rank", from, readProbe())
		}
		rec.Top1, rec.Top1AccBits, rec.Epochs, rec.Rungs = ro.top1, ro.top1AccBits, ro.epochs, ro.rungs
		rec.TruthIndex = last.truthIndex
		return rec, last, nil
	default:
		var from probe
		if jt != nil {
			from = readProbe()
		}
		wo, err := runWeights(ctx, j.wv)
		if jt != nil {
			jt.tr.add(jt.root, jt.job, "weights", from, readProbe())
		}
		rec.Queries, rec.ZeroErrors, rec.MaxRatioErr = wo.queries, wo.zeroErrors, math.Float64bits(wo.maxRatioErr)
		return rec, last, err
	}
}

// checkJob applies the output check behind fail_frac.
func checkJob(j *job, rec jobRecord) error {
	switch j.kind {
	case structJob:
		if j.spec.defended() {
			if !rec.Refused && rec.TruthIndex >= 0 {
				return fmt.Errorf("defense %s did not hide the structure (truth at %d)", j.spec.defense, rec.TruthIndex)
			}
			return nil
		}
		if rec.TruthIndex < 0 {
			return fmt.Errorf("true structure lost (%d candidates)", rec.Candidates)
		}
	case rankJob:
		if rec.Top1 < 0 {
			return fmt.Errorf("ranking produced no top-1")
		}
	case weightJob:
		if rec.ZeroErrors > 0 {
			return fmt.Errorf("%d zero-weight misclassifications", rec.ZeroErrors)
		}
		if e := math.Float64frombits(rec.MaxRatioErr); !(e < weightRatioBound) {
			return fmt.Errorf("ratio error %g not below 2^-10", e)
		}
	}
	return nil
}

// passResult is one pass over the job list.
type passResult struct {
	jobMS []float64
	wall  time.Duration
	alloc uint64
	peak  uint64
	speed float64 // host slowdown against the reference speed (calib.go)
	// kernelMS holds the calibration kernel's time before each job and
	// after the last, when the pass was calibrated, and jobSpeed the host's
	// slowdown around each job: the mean of the timings on either side.
	kernelMS, jobSpeed []float64
	// jobHeap is each job's peak live heap in bytes and jobRSS its peak RSS
	// in MB, when the pass was measured.
	jobHeap, jobRSS []float64
	done            int // jobs run: len(jobs), or fewer if the pass was cut short
	records         []jobRecord
	fails           map[int]string // job index → why it failed
}

func (pr *passResult) complete() bool { return pr.done == len(pr.jobMS) }

// passOpts says what a pass measures besides job times.
type passOpts struct {
	// tr, when set, receives a root span per job and child spans per stage;
	// jobBase numbers the pass's jobs in it.
	tr      *tracer
	jobBase int
	// cal, when set, is timed between jobs (outside the job times and the
	// pass's wall time); the pass's speed is the median of those timings.
	// Taking each job's time at the speed measured on either side of it
	// left the least spread between runs: in 60 runs over the three
	// in-process workloads, the largest interquartile spread of a time
	// metric was 0.12 against 0.17 with the pass's speed.
	cal *calibrator
	// heap, when set, gives each job's peak live heap; the peak RSS of each
	// job is then taken too, and each job starts from a collected heap (the
	// collection outside its time), so its peaks do not depend on the
	// garbage the jobs before it left.
	heap *heapSampler
	// stop, when set, ends the pass before job i if stop(i) says so.
	stop func(i int) bool
}

// runPass runs every job once, in order.
func (w *inprocWorkload) runPass(ctx context.Context, o passOpts) passResult {
	n := len(w.jobs)
	pr := passResult{jobMS: make([]float64, n), records: make([]jobRecord, n), fails: map[int]string{}}
	if o.heap != nil {
		pr.jobHeap, pr.jobRSS = make([]float64, n), make([]float64, n)
	}
	start := readProbe()
	var last *structOutcome
	for i := range w.jobs {
		j := &w.jobs[i]
		if o.stop != nil && o.stop(i) {
			break
		}
		if o.cal != nil {
			pr.kernelMS = append(pr.kernelMS, o.cal.kernelMS())
		}
		if o.heap != nil {
			runtime.GC()
			o.heap.take()
			resetPeakRSS()
		}
		pr.done++
		var jt *jobTracing
		var p0 probe
		if o.tr != nil {
			p0 = readProbe()
			jt = &jobTracing{tr: o.tr, job: o.jobBase + i}
			jt.root = o.tr.begin(0, jt.job, "job", p0)
		}
		t0 := time.Now()
		rec, so, err := runJob(ctx, j, last, jt)
		pr.jobMS[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if o.tr != nil {
			o.tr.end(jt.root, p0, readProbe())
		}
		if o.heap != nil {
			pr.jobHeap[i] = float64(o.heap.take())
			pr.jobRSS[i], _ = peakRSSMB(os.Getpid()) // 0 if unreadable
		}
		last = so
		pr.records[i] = rec
		if err == nil {
			err = checkJob(j, rec)
		}
		if err != nil {
			pr.fails[i] = fmt.Sprintf("%s: %v", j.name, err)
		}
	}
	if o.cal != nil {
		pr.kernelMS = append(pr.kernelMS, o.cal.kernelMS())
		pr.speed = speed(pr.kernelMS)
		for i := range pr.done {
			pr.jobSpeed = append(pr.jobSpeed, speed(pr.kernelMS[i:i+2]))
		}
	}
	for _, h := range pr.jobHeap {
		pr.peak = max(pr.peak, uint64(h))
	}
	end := readProbe()
	pr.wall = end.wall.Sub(start.wall)
	for _, k := range pr.kernelMS {
		pr.wall -= time.Duration(k * float64(time.Millisecond))
	}
	pr.alloc = end.alloc - start.alloc
	return pr
}

// runInproc runs an in-process workload: set-up (repeated), the warm-up
// pass that records the invariants, then measured passes until the run's
// time is spent. A traced run alternates untraced and traced passes.
func runInproc(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newRunResult()
	cal := newCalibrator()
	kernel := cal.sample(5)
	var w *inprocWorkload
	var setups []float64
	for r := 0; r < cfg.setupReps; r++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = buildInproc(cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	n := len(w.jobs)

	// Warm-up: capture every structure job's trace on its own to record
	// its digest and counts, then run the pass whose outcomes every later
	// pass must reproduce.
	t0 := time.Now()
	infos := make([]*captureInfo, n)
	for i := range w.jobs {
		if j := &w.jobs[i]; j.kind == structJob {
			info, err := inspectCapture(j.v, j.spec)
			if err != nil {
				return nil, fmt.Errorf("%s: inspect capture: %w", j.name, err)
			}
			infos[i] = info
		}
	}
	warm := w.runPass(ctx, passOpts{})
	warmS := time.Since(t0).Seconds()
	res.attempted += n
	res.fail(failList(warm.fails)...)
	setupSpeed := speed(append(kernel, cal.sample(5)...))
	res.repeats["setup_s"] = summarize(setups)
	res.e2e["setup_s"] = (median(setups) + warmS) / setupSpeed
	res.raw["setup_s"] = median(setups) + warmS
	res.raw["setup_speed"] = setupSpeed
	res.extra["setup_prep_s"] = setups
	res.extra["setup_warmup_s"] = warmS

	// Measured passes.
	var untraced, traced []passResult
	tr := newTracer()
	var tracedCPU, tracedWall time.Duration
	var gcCPU, allCPU float64
	runtime.GC() // start every run's measured phase from a collected heap
	heap := startHeapSampler(10 * time.Millisecond)
	heap.take()
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	// An untraced run spends the whole budget: once a pass has completed,
	// the last one stops before a job that would not end in time (by the
	// job's latest time), and the jobs it did run still count.
	lastMS := append([]float64(nil), warm.jobMS...)
	stop := func(i int) bool {
		return len(untraced) > 0 && time.Since(start)+time.Duration(lastMS[i]*float64(time.Millisecond)) > budget
	}
	for p := 0; ; p++ {
		withTrace := cfg.traced && p%2 == 1
		var pr passResult
		if withTrace {
			g0, a0 := runtimeCPU()
			b := readProbe()
			pr = w.runPass(ctx, passOpts{tr: tr, jobBase: (p + 1) * n, cal: cal})
			e := readProbe()
			g1, a1 := runtimeCPU()
			gcCPU += g1 - g0
			allCPU += a1 - a0
			tracedCPU += e.cpu - b.cpu
			tracedWall += e.wall.Sub(b.wall)
		} else if cfg.traced {
			pr = w.runPass(ctx, passOpts{cal: cal, heap: heap})
		} else {
			pr = w.runPass(ctx, passOpts{cal: cal, heap: heap, stop: stop})
		}
		copy(lastMS[:pr.done], pr.jobMS)
		switch {
		case withTrace:
			traced = append(traced, pr)
		case pr.done > 0:
			untraced = append(untraced, pr)
		}
		res.attempted += pr.done
		for i, rec := range pr.records[:pr.done] {
			if _, failed := pr.fails[i]; !failed && rec.key() != warm.records[i].key() {
				pr.fails[i] = fmt.Sprintf("%s: outcome changed from the warm-up pass: %+v vs %+v", rec.Job, rec, warm.records[i])
			}
		}
		res.fail(failList(pr.fails)...)
		if !pr.complete() {
			break
		}
		if cfg.traced {
			next := time.Since(start) + time.Duration(median(passWalls(untraced))*float64(time.Second))
			if next > budget && len(traced) > 0 {
				break
			}
		} else if stop(0) {
			break
		}
	}
	heap.close()

	// End-to-end metrics, from the untraced passes: each job's median
	// time at the reference speed over every pass that ran it, the same
	// from the raw times, the least of its peak live heaps and the median
	// of its peak RSS.
	jobMed, rawMed, heapMin, rssMed := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range jobMed {
		var xs, raw, hs, rs []float64
		for _, pr := range untraced {
			if i < pr.done {
				xs = append(xs, pr.jobMS[i]/pr.jobSpeed[i])
				raw = append(raw, pr.jobMS[i])
				hs = append(hs, pr.jobHeap[i]/1e6)
				rs = append(rs, pr.jobRSS[i])
			}
		}
		jobMed[i], rawMed[i], heapMin[i], rssMed[i] = median(xs), median(raw), slices.Min(hs), median(rs)
	}
	// Per-pass metrics, from the complete untraced passes.
	var full []passResult
	for _, pr := range untraced {
		if pr.complete() {
			full = append(full, pr)
		}
	}
	walls := passWalls(full)
	var perPassRate, perPassAlloc, perPassPeak, speeds []float64
	for _, pr := range full {
		perPassRate = append(perPassRate, float64(n)*pr.speed/pr.wall.Seconds())
		perPassAlloc = append(perPassAlloc, float64(pr.alloc)/float64(n)/1e6)
		perPassPeak = append(perPassPeak, float64(pr.peak)/1e6)
		speeds = append(speeds, pr.speed)
	}
	latencyMetrics(res.e2e, jobMed)
	latencyMetrics(res.raw, rawMed)
	res.raw["speed"] = median(speeds)
	res.e2e["alloc_mb_per_job"] = median(perPassAlloc)
	// The peaks are those of the job with the largest one. A job's live
	// heap counts what the collector marked, garbage included, so where a
	// cycle happens to end only adds to it: its least value over the runs
	// is the steady one (the largest job's median flipped between two
	// values 15% apart from run to run).
	res.e2e["peak_heap_mb"] = slices.Max(heapMin)
	res.e2e["server_rss_mb"] = slices.Max(rssMed)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.raw["process_hwm_mb"] = rss
	res.extra["job_peak_heap_mb"] = namedValues(w.jobs, heapMin)
	res.extra["job_peak_rss_mb"] = namedValues(w.jobs, rssMed)
	res.repeats["jobs_per_s"] = summarize(perPassRate)
	res.repeats["alloc_mb_per_job"] = summarize(perPassAlloc)
	res.repeats["peak_heap_mb"] = summarize(perPassPeak)
	res.extra["pass_s"] = walls
	var passJobs, passKernels [][]float64
	var passSpeeds []float64
	for _, pr := range untraced {
		passJobs = append(passJobs, pr.jobMS[:pr.done])
		passKernels = append(passKernels, pr.kernelMS)
		passSpeeds = append(passSpeeds, pr.speed)
	}
	res.extra["pass_job_ms"] = passJobs
	res.extra["pass_kernel_ms"] = passKernels
	res.extra["pass_speed"] = passSpeeds
	res.extra["job_median_ms"] = namedValues(w.jobs, jobMed)

	// Invariants: per-job outcomes and capture counts of the warm-up pass.
	inv := invariants(w, warm.records, infos)
	res.counts = inv
	res.extra["jobs"] = warm.records

	if cfg.traced {
		untracedRate := float64(n*len(untraced)) / sumWalls(untraced)
		tracedRate := float64(n*len(traced)) / sumWalls(traced)
		res.layer["trace.speed_ratio"] = tracedRate / untracedRate
		layerMetrics(res, w, tr.spans, infos, warm.records, len(traced))
		if allCPU > 0 {
			res.layer["runtime.gc_cpu_frac"] = gcCPU / allCPU
		}
		res.layer["runtime.cpu_util"] = tracedCPU.Seconds() / (tracedWall.Seconds() * float64(runtime.GOMAXPROCS(0)))
		res.spans = tr.spans
		res.extra["layer_shares"] = layerShares(tr.spans)
		res.extra["spans_by_name"] = aggregate(tr.spans)
		if len(w.profile) > 0 {
			vl, err := victimLayers(ctx, w.profile, cfg.seed)
			if err != nil {
				return nil, err
			}
			res.extra["victim_layers"] = vl
		}
	}
	return res, nil
}

// failList returns a pass's failure messages in job order.
func failList(fails map[int]string) []string {
	idx := make([]int, 0, len(fails))
	for i := range fails {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = fails[i]
	}
	return out
}

// latencyMetrics sets jobs_per_s and the job-time percentiles from each
// job's median time in ms: one closed-loop client, so jobs_per_s is the
// reciprocal of the mean.
func latencyMetrics(m map[string]float64, jobMS []float64) {
	var sum float64
	for _, x := range jobMS {
		sum += x
	}
	m["jobs_per_s"] = float64(len(jobMS)) / (sum / 1e3)
	m["job_p50_ms"] = percentile(jobMS, 50)
	m["job_p90_ms"] = percentile(jobMS, 90)
	m["job_p99_ms"] = percentile(jobMS, 99)
}

// passWalls lists pass wall times in seconds.
func passWalls(ps []passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// sumWalls sums pass wall times at the reference speed.
func sumWalls(ps []passResult) float64 {
	var s float64
	for _, p := range ps {
		s += p.wall.Seconds() / p.speed
	}
	return s
}

func namedValues(jobs []job, xs []float64) map[string]float64 {
	out := map[string]float64{}
	for i, j := range jobs {
		out[j.name] = xs[i]
	}
	return out
}

// invariants gathers the deterministic counts of one pass: a pure
// speed-up must leave every one of them, and the trace digest, unchanged.
func invariants(w *inprocWorkload, recs []jobRecord, infos []*captureInfo) map[string]any {
	h := sha256.New()
	var kcycles float64
	var records, candidates, truncated, epochs, rungs, queries int
	var bw []float64
	for i, rec := range recs {
		if info := infos[i]; info != nil {
			fmt.Fprintf(h, "%s %s\n", rec.Job, info.digest)
			kcycles += float64(info.simCycles) / 1e3
			records += info.records
			if info.bandwidthX > 0 {
				bw = append(bw, info.bandwidthX)
			}
		}
		candidates += rec.Candidates
		epochs += rec.Epochs
		rungs += rec.Rungs
		queries += rec.Queries
		if rec.Truncated {
			truncated++
		}
	}
	inv := map[string]any{
		"trace_digest":             hex.EncodeToString(h.Sum(nil)),
		"accel.sim_kcycles":        kcycles,
		"accel.records":            records,
		"structrev.candidates":     candidates,
		"structrev.truncated_jobs": truncated,
		"core.rank_epochs":         epochs,
		"core.rank_rungs":          rungs,
		"weightrev.queries":        queries,
	}
	if len(bw) > 0 {
		var s float64
		for _, x := range bw {
			s += x
		}
		inv["defense.bandwidth_x"] = s / float64(len(bw))
	}
	return inv
}

// layerMetrics derives the per-layer metrics of an in-process workload
// from the traced passes' spans and the warm-up counts.
func layerMetrics(res *runResult, w *inprocWorkload, spans []span, infos []*captureInfo, recs []jobRecord, passes int) {
	agg := aggregate(spans)
	get := func(name string) spanAgg {
		if a := agg[name]; a != nil {
			return *a
		}
		return spanAgg{}
	}
	jobs := float64(len(w.jobs) * passes)
	const mb = 1e6
	var kcycles, analyzed float64
	for i, info := range infos {
		if info != nil {
			kcycles += float64(info.simCycles) / 1e3
			if !recs[i].Refused {
				analyzed += float64(info.analyzedRecords)
			}
		}
	}
	kcycles *= float64(passes)
	analyzed *= float64(passes)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	capt, job := get("capture"), get("job")
	res.layer["accel.capture_ms"] = capt.WallMS / jobs
	res.layer["accel.capture_share"] = ratio(capt.WallMS, job.WallMS)
	res.layer["accel.ns_per_kcycle"] = ratio(capt.WallMS*1e6, kcycles)
	res.layer["accel.alloc_mb"] = capt.AllocB / jobs / mb
	def, cor := get("defense"), get("corrupt")
	res.layer["defense.ms"] = def.WallMS / jobs
	res.layer["corrupt.ms"] = cor.WallMS / jobs
	res.layer["corrupt.alloc_mb"] = cor.AllocB / jobs / mb
	an, at := get("analyze"), get("analyze_tolerant")
	res.layer["structrev.analyze_ms"] = an.WallMS / jobs
	res.layer["structrev.analyze_tolerant_ms"] = at.WallMS / jobs
	res.layer["structrev.analyze_ns_per_record"] = ratio((an.WallMS+at.WallMS)*1e6, analyzed)
	res.layer["structrev.analyze_alloc_mb"] = (an.AllocB + at.AllocB) / jobs / mb
	res.layer["structrev.detect_ms"] = get("detect").WallMS / jobs
	res.layer["structrev.solve_ms"] = get("solve").WallMS / jobs
	rk := get("rank")
	var epochs, queries float64
	for _, r := range recs {
		epochs += float64(r.Epochs)
		queries += float64(r.Queries)
	}
	gmp := float64(runtime.GOMAXPROCS(0))
	res.layer["core.rank_ms"] = rk.WallMS / jobs
	res.layer["core.rank_ms_per_epoch"] = ratio(rk.WallMS, epochs*float64(passes))
	res.layer["core.rank_cpu_util"] = ratio(rk.CPUMS, rk.WallMS*gmp)
	res.layer["core.rank_alloc_mb"] = rk.AllocB / jobs / mb
	wt := get("weights")
	res.layer["weightrev.attack_ms"] = wt.WallMS / jobs
	res.layer["weightrev.ns_per_query"] = ratio(wt.WallMS*1e6, queries*float64(passes))
	res.layer["weightrev.cpu_util"] = ratio(wt.CPUMS, wt.WallMS*gmp)
}

// victimRow is one CNN layer of the victim-layer report.
type victimRow struct {
	layerRow
	ConfigsKept int `json:"configs_kept"`
}

// victimLayers profiles full-size victims layer by layer,
// output-stationary, and joins the recovered configurations the structure
// attack keeps for each weighted layer.
func victimLayers(ctx context.Context, models []string, seed int64) (map[string][]victimRow, error) {
	out := map[string][]victimRow{}
	for _, model := range models {
		v, err := newVictim(model, 1, seed)
		if err != nil {
			return nil, err
		}
		so, err := runStructure(ctx, v, structSpec{dataflow: "os", seed: seed}, nil)
		if err != nil {
			return nil, err
		}
		rows, err := profileLayers(v, seed)
		if err != nil {
			return nil, err
		}
		cfgs := so.configsKept
		k := 0
		var vr []victimRow
		for _, r := range rows {
			row := victimRow{layerRow: r}
			if r.Weighted && k < len(cfgs) {
				row.ConfigsKept = cfgs[k]
				k++
			}
			vr = append(vr, row)
		}
		out[model] = vr
	}
	return out, nil
}
