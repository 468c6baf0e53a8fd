package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// server is a revcnnd child process listening on loopback.
type server struct {
	cmd  *exec.Cmd
	base string
	logs sync.WaitGroup // drains the child's stderr
	tail *tailBuffer
}

// startServer launches revcnnd on an ephemeral loopback port and returns
// once /healthz answers.
func startServer(ctx context.Context, bin string, workers int) (*server, error) {
	if bin == "" {
		return nil, errors.New("serve-mix needs -revcnnd, the path of a built revcnnd")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start revcnnd: %w", err)
	}
	s := &server{cmd: cmd, tail: &tailBuffer{}}
	addr := make(chan string, 1)
	s.logs.Add(1)
	go func() {
		defer s.logs.Done()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.tail.add(line)
			if !sent && strings.Contains(line, "revcnnd listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addr <- a
						sent = true
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // keep the pipe drained after a scan error
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("revcnnd exited before listening: %s", s.tail.String())
		}
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("revcnnd did not report its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("revcnnd /healthz did not answer: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the child if it
// lingers. It returns once the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // the process may already be gone
	done := make(chan struct{})
	go func() {
		s.logs.Wait()
		_ = s.cmd.Wait() // exit status of a signalled child is not interesting
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

func (s *server) scrape() (*promSet, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// tailBuffer keeps the last lines of the child's log for error messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(l string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, l)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// template is one distinct request of the serve-mix traffic.
type template struct {
	name     string
	path     string // with query, without cache_bypass
	body     []byte
	ctype    string
	expect   int // num_structures of the same job run in-process
	small    bool
	records  int     // trace records the analysis reads
	kcycles  float64 // simulated kcycles the server captures (simulate)
	tolerant bool
}

// serveMix is the serve-mix traffic: templates plus the seeded schedule.
type serveMix struct {
	templates []template
	// schedule[i] is the i-th request: a template index and whether it
	// bypasses the result cache.
	schedule []scheduled
	uploads  []*captureInfo
}

type scheduled struct {
	tmpl   int
	bypass bool
}

// The request mix, per block of 20 requests: 12 cache-bypassing uploads
// weighted toward the small victims, 5 repeats of uploads the warm-up
// already cached (cache hits), and 3 simulate requests rotating over the
// simulate templates. The seed shuffles the order inside each block, so
// every prefix of whole blocks has the same composition on every seed.
var (
	bypassUploads = map[string]int{"lenet": 4, "convnet": 3, "nin": 2, "squeezenet": 2, "alexnet": 1}
	hitUploads    = map[string]int{"lenet": 1, "convnet": 1, "nin": 1, "squeezenet": 1, "alexnet": 1}
)

const (
	simulatePerBlock = 3
	scheduleBlocks   = 1024
)

var uploadModels = []string{"lenet", "convnet", "nin", "squeezenet", "alexnet"}

// buildServeMix builds the upload victims, captures and encodes their
// traces, and draws the request schedule from the seed.
func buildServeMix(seed int64) (*serveMix, map[string]*victim, error) {
	m := &serveMix{}
	victims := map[string]*victim{}
	for _, model := range uploadModels {
		v, err := newVictim(model, 1, seed)
		if err != nil {
			return nil, nil, err
		}
		victims[model] = v
		body, err := captureUpload(v, seed)
		if err != nil {
			return nil, nil, err
		}
		w, d, classes := v.inputDims()
		m.templates = append(m.templates, template{
			name: "upload/" + model,
			path: fmt.Sprintf("/v1/attack/trace?inw=%d&ind=%d&classes=%d", w, d, classes),
			body: body, ctype: "application/octet-stream",
			small: model == "lenet" || model == "convnet",
		})
	}
	for _, model := range []string{"lenet", "convnet"} {
		for _, df := range []string{"ws", "rs"} {
			body, err := json.Marshal(map[string]any{"model": model, "dataflow": df, "tolerant": true, "seed": seed})
			if err != nil {
				return nil, nil, err
			}
			m.templates = append(m.templates, template{
				name: "simulate/" + model + "-" + df, path: "/v1/attack/simulate",
				body: body, ctype: "application/json", tolerant: true,
			})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	nUp, nSim := len(uploadModels), len(m.templates)-len(uploadModels)
	for b := 0; b < scheduleBlocks; b++ {
		var block []scheduled
		for i, model := range uploadModels {
			for k := 0; k < bypassUploads[model]; k++ {
				block = append(block, scheduled{tmpl: i, bypass: true})
			}
			for k := 0; k < hitUploads[model]; k++ {
				block = append(block, scheduled{tmpl: i})
			}
		}
		for k := 0; k < simulatePerBlock; k++ {
			block = append(block, scheduled{tmpl: nUp + (b*simulatePerBlock+k)%nSim, bypass: true})
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		m.schedule = append(m.schedule, block...)
	}
	return m, victims, nil
}

// expectations runs every template's job in-process, through the same
// entry point, to learn the num_structures revcnnd must return, and counts
// the records and cycles each request makes the server process.
func (m *serveMix) expectations(ctx context.Context, victims map[string]*victim, seed int64) error {
	for i := range m.templates {
		t := &m.templates[i]
		model, df := strings.TrimPrefix(t.name, "upload/"), "os"
		if strings.HasPrefix(t.name, "simulate/") {
			model, df, _ = strings.Cut(strings.TrimPrefix(t.name, "simulate/"), "-")
		}
		spec := structSpec{dataflow: df, tolerant: t.tolerant, seed: seed}
		so, err := runStructure(ctx, victims[model], spec, nil)
		if err != nil {
			return fmt.Errorf("%s in-process: %w", t.name, err)
		}
		info, err := inspectCapture(victims[model], spec)
		if err != nil {
			return err
		}
		t.expect, t.records = so.candidates, info.analyzedRecords
		if t.tolerant {
			t.kcycles = float64(info.simCycles) / 1e3
		} else {
			m.uploads = append(m.uploads, info)
		}
	}
	return nil
}

// sample is one client-observed request.
type sample struct {
	seq        int
	tmpl       int
	start, end time.Time
	status     int
	hit        bool
	err        error
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start).Nanoseconds()) / 1e6 }

type apiResponse struct {
	NumStructures int  `json:"num_structures"`
	Cached        bool `json:"cached"`
}

// do sends one request and checks its response against the template.
func (m *serveMix) do(c *http.Client, base string, seq int, sc scheduled) sample {
	t := &m.templates[sc.tmpl]
	path := t.path
	if sc.bypass {
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		path += sep + "cache_bypass=true"
	}
	s := sample{seq: seq, tmpl: sc.tmpl, start: time.Now()}
	resp, err := c.Post(base+path, t.ctype, bytes.NewReader(t.body))
	if err != nil {
		s.end, s.err = time.Now(), err
		return s
	}
	var ar apiResponse
	derr := json.NewDecoder(resp.Body).Decode(&ar)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	s.status = resp.StatusCode
	s.hit = resp.Header.Get("X-Revcnnd-Cache") == "hit"
	switch {
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("%s: status %d", t.name, resp.StatusCode)
	case derr != nil:
		s.err = fmt.Errorf("%s: decode response: %w", t.name, derr)
	case ar.NumStructures != t.expect:
		s.err = fmt.Errorf("%s: num_structures %d, in-process %d", t.name, ar.NumStructures, t.expect)
	}
	return s
}

// drive runs conns closed-loop connections over the schedule, starting at
// *next, until d has passed.
func (m *serveMix) drive(base string, conns int, d time.Duration, next *atomic.Int64) []sample {
	deadline := time.Now().Add(d)
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{
				Timeout:   2 * time.Minute,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			}
			defer client.CloseIdleConnections()
			for time.Now().Before(deadline) {
				seq := int(next.Add(1) - 1)
				out[c] = append(out[c], m.do(client, base, seq, m.schedule[seq%len(m.schedule)]))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

const serveConns = 2
const serveWorkers = 2

// runServeMix runs the service workload against a revcnnd child.
func runServeMix(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newRunResult()
	cal := newCalibrator()
	kernel := cal.sample(5)
	var mix *serveMix
	var victims map[string]*victim
	var srv *server
	var setups []float64
	for r := 0; r < cfg.setupReps; r++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		mix, victims = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if mix, victims, err = buildServeMix(cfg.seed); err != nil {
			return nil, err
		}
		if srv, err = startServer(ctx, cfg.revcnnd, serveWorkers); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	// Warm-up: learn every template's expected result in-process, then send
	// each once without cache_bypass so repeats are cache hits.
	t0 := time.Now()
	if err := mix.expectations(ctx, victims, cfg.seed); err != nil {
		return nil, err
	}
	warmClient := &http.Client{Timeout: 2 * time.Minute}
	for i := range mix.templates {
		s := mix.do(warmClient, srv.base, -1, scheduled{tmpl: i})
		res.attempted++
		if s.err != nil {
			res.fail("warm-up " + s.err.Error())
		}
	}
	warmClient.CloseIdleConnections()
	warmS := time.Since(t0).Seconds()
	setupSpeed := speed(append(kernel, cal.sample(5)...))
	res.e2e["setup_s"] = (median(setups) + warmS) / setupSpeed
	res.raw["setup_s"] = median(setups) + warmS
	res.raw["setup_speed"] = setupSpeed
	res.repeats["setup_s"] = summarize(setups)
	res.extra["setup_prep_s"] = setups
	res.extra["setup_warmup_s"] = warmS
	victims = nil

	var next atomic.Int64
	measured := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		measured /= 2
	}
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	// Drop the set-up victims before sampling the live heap; the second
	// cycle frees what the first moved to sync.Pool victim caches.
	runtime.GC()
	runtime.GC()
	heap := startHeapSampler(10 * time.Millisecond)
	heap.take()
	a0 := readProbe()
	segs := mix.driveSegments(cal, srv.base, measured, &next)
	a1 := readProbe()
	peak := heap.take()
	heap.close()
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	var samples []sample
	var wall time.Duration
	for _, sg := range segs {
		samples = append(samples, sg.samples...)
		wall += sg.wall
	}
	res.attempted += len(samples)
	for _, s := range samples {
		if s.err != nil {
			res.fail(s.err.Error())
		}
	}
	e2eServe(res, segs, float64(a1.alloc-a0.alloc), float64(peak))
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res.e2e["server_rss_mb"] = rss
	rejected, _ := promDelta(before, after, "revcnnd_jobs_rejected_total")
	retried, _ := promDelta(before, after, "revcnnd_store_retried_total")
	res.counts["serve.templates"] = len(mix.templates)
	var candidates, records int
	var kcycles float64
	for _, t := range mix.templates {
		candidates += t.expect
	}
	for _, u := range mix.uploads {
		records += u.records
		kcycles += float64(u.simCycles) / 1e3
	}
	res.counts["structrev.candidates"] = candidates
	res.counts["structrev.truncated_jobs"] = 0
	res.counts["accel.records"] = records
	res.counts["accel.sim_kcycles"] = kcycles
	res.counts["trace_digest"] = uploadDigest(mix)

	if cfg.traced {
		untracedRate := float64(len(samples)) / wall.Seconds()
		small, err := smallUploadProbe(srv, mix)
		if err != nil {
			return nil, err
		}
		res.layer["serve.small_nonanalysis_frac"] = small
		if err := tracedServe(res, srv, mix, measured, &next, untracedRate); err != nil {
			return nil, err
		}
		res.layer["serve.rejected"] = rejected
		res.layer["jobstore.retried"] = retried
	}
	return res, nil
}

// segment is one stretch of closed-loop traffic between two timings of
// the calibration kernel.
type segment struct {
	samples []sample
	wall    time.Duration
	speed   float64 // host slowdown against the reference speed (calib.go)
}

const segmentDur = 2 * time.Second

// driveSegments drives the traffic for d in segments and times the
// calibration kernel between them, while the server is idle.
func (m *serveMix) driveSegments(cal *calibrator, base string, d time.Duration, next *atomic.Int64) []segment {
	var segs []segment
	kernel := cal.sample(3)
	for left := d; left > 0; left -= segmentDur {
		t0 := time.Now()
		s := m.drive(base, serveConns, min(segmentDur, left), next)
		wall := time.Since(t0)
		after := cal.sample(3)
		segs = append(segs, segment{samples: s, wall: wall, speed: speed(append(kernel, after...))})
		kernel = after
	}
	return segs
}

// e2eServe computes the end-to-end metrics of the measured requests at the
// reference speed, the raw values, and the spread over segments.
func e2eServe(res *runResult, segs []segment, allocB, peakB float64) {
	var lat, rawLat, rate, rawRate, speeds, p50, p90 []float64
	for _, sg := range segs {
		var segLat []float64
		for _, s := range sg.samples {
			segLat = append(segLat, s.ms()/sg.speed)
			rawLat = append(rawLat, s.ms())
		}
		lat = append(lat, segLat...)
		r := float64(len(sg.samples)) / sg.wall.Seconds()
		rate = append(rate, r*sg.speed)
		rawRate = append(rawRate, r)
		speeds = append(speeds, sg.speed)
		if len(segLat) > 0 {
			p50 = append(p50, percentile(segLat, 50))
			p90 = append(p90, percentile(segLat, 90))
		}
	}
	n := len(lat)
	if n == 0 {
		res.fail("no request completed in the measured phase")
		return
	}
	for _, m := range []struct {
		out       map[string]float64
		lat, rate []float64
	}{{res.e2e, lat, rate}, {res.raw, rawLat, rawRate}} {
		m.out["jobs_per_s"] = median(m.rate)
		m.out["job_p50_ms"] = percentile(m.lat, 50)
		m.out["job_p90_ms"] = percentile(m.lat, 90)
		m.out["job_p99_ms"] = percentile(m.lat, 99)
	}
	res.raw["speed"] = median(speeds)
	res.e2e["alloc_mb_per_job"] = allocB / float64(n) / 1e6
	res.e2e["peak_heap_mb"] = peakB / 1e6
	res.extra["latency_samples"] = n
	res.extra["beyond_p99"] = n - int(0.99*float64(n))
	if n < 1000 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d requests: fewer than 10 lie beyond p99\n", n)
	}
	res.repeats["jobs_per_s"] = summarize(rate)
	res.repeats["job_p50_ms"] = summarize(p50)
	res.repeats["job_p90_ms"] = summarize(p90)
}

// uploadDigest combines the SHA-256 digests of the uploaded traces.
func uploadDigest(m *serveMix) string {
	h := sha256.New()
	for _, u := range m.uploads {
		fmt.Fprintln(h, u.digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stageSeconds is the per-stage server time between two scrapes.
func stageSeconds(before, after *promSet, stage string) (float64, bool) {
	return promDelta(before, after, "revcnnd_stage_seconds_sum", `stage="`+stage+`"`)
}

// smallUploadProbe sends small cache-bypassing uploads one at a time and
// returns the share of their client latency spent outside the analysis
// stages (analyze, detect, solve).
func smallUploadProbe(srv *server, m *serveMix) (float64, error) {
	before, err := srv.scrape()
	if err != nil {
		return 0, err
	}
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	var small []int
	for i, t := range m.templates {
		if t.small {
			small = append(small, i)
		}
	}
	var total float64
	const n = 200
	for i := 0; i < n; i++ {
		s := m.do(client, srv.base, -1, scheduled{tmpl: small[i%len(small)], bypass: true})
		if s.err != nil {
			return 0, s.err
		}
		total += s.end.Sub(s.start).Seconds()
	}
	after, err := srv.scrape()
	if err != nil {
		return 0, err
	}
	var analysis float64
	for _, st := range []string{"analyze", "detect", "solve"} {
		d, ok := stageSeconds(before, after, st)
		if !ok {
			return 0, fmt.Errorf("revcnnd exports no %s stage time", st)
		}
		analysis += d
	}
	return 1 - analysis/total, nil
}

// tracedServe runs the traced half: one span per request from client
// timing, and layer times from /metrics deltas over the same interval.
func tracedServe(res *runResult, srv *server, m *serveMix, d time.Duration, next *atomic.Int64, untracedRate float64) error {
	before, err := srv.scrape()
	if err != nil {
		return err
	}
	cpu0, err := procCPUSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	t0 := time.Now()
	samples := m.drive(srv.base, serveConns, d, next)
	wall := time.Since(t0)
	cpu1, err := procCPUSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	after, err := srv.scrape()
	if err != nil {
		return err
	}
	res.attempted += len(samples)
	tr := &tracer{t0: t0}
	var clientS, kcycles, records float64
	for _, s := range samples {
		if s.err != nil {
			res.fail(s.err.Error())
		}
		tr.add(0, s.seq, "request", probe{wall: s.start}, probe{wall: s.end})
		clientS += s.end.Sub(s.start).Seconds()
		if !s.hit {
			t := &m.templates[s.tmpl]
			kcycles += t.kcycles
			records += float64(t.records)
		}
	}
	res.spans = tr.spans
	jobs := float64(len(samples))
	res.layer["trace.speed_ratio"] = jobs / wall.Seconds() / untracedRate
	res.layer["runtime.cpu_util"] = (cpu1 - cpu0) / (wall.Seconds() * float64(runtime.NumCPU()))

	var absentSeries []string
	stage := func(name string) float64 {
		v, ok := stageSeconds(before, after, name)
		if !ok {
			absentSeries = append(absentSeries, "stage "+name)
		}
		return v
	}
	var stageSum float64
	for _, st := range []string{"decode", "capture", "defense", "corrupt", "analyze", "detect", "solve", "rank", "weights"} {
		stageSum += stage(st)
	}
	ms := func(sec float64) float64 { return sec * 1e3 / jobs }
	capture := stage("capture")
	res.layer["memtrace.decode_ms"] = ms(stage("decode"))
	res.layer["accel.capture_ms"] = ms(capture)
	res.layer["accel.capture_share"] = capture / clientS
	if kcycles > 0 {
		res.layer["accel.ns_per_kcycle"] = capture * 1e9 / kcycles
	}
	res.layer["defense.ms"] = ms(stage("defense"))
	res.layer["corrupt.ms"] = ms(stage("corrupt"))
	analyze := stage("analyze")
	// Uploads declare no dataflow (output-stationary) and are analyzed
	// strictly; the simulate requests run weight- and row-stationary and
	// tolerant, so the per-dataflow split separates the two analyses.
	strict, ok := promDelta(before, after, "revcnnd_stage_dataflow_seconds_total", `stage="analyze"`, `dataflow="output-stationary"`)
	if ok {
		res.layer["structrev.analyze_ms"] = ms(strict)
		res.layer["structrev.analyze_tolerant_ms"] = ms(analyze - strict)
	} else {
		absentSeries = append(absentSeries, "stage_dataflow analyze")
		res.layer["structrev.analyze_ms"] = ms(analyze)
	}
	if records > 0 {
		res.layer["structrev.analyze_ns_per_record"] = analyze * 1e9 / records
	}
	res.layer["structrev.detect_ms"] = ms(stage("detect"))
	res.layer["structrev.solve_ms"] = ms(stage("solve"))
	res.layer["serve.overhead_ms"] = (clientS - stageSum) * 1e3 / jobs
	meanMS := func(name string) {
		sum, ok1 := promDelta(before, after, "revcnnd_"+name+"_seconds_sum")
		cnt, ok2 := promDelta(before, after, "revcnnd_"+name+"_seconds_count")
		if !ok1 || !ok2 {
			absentSeries = append(absentSeries, name)
			return
		}
		if cnt > 0 {
			res.layer["serve."+name+"_ms"] = sum * 1e3 / cnt
		}
	}
	meanMS("queue_wait")
	meanMS("lease_age")
	if hits, ok := promDelta(before, after, "revcnnd_cache_hits_total"); ok {
		res.layer["serve.cache_hit_frac"] = hits / jobs
	} else {
		absentSeries = append(absentSeries, "cache_hits_total")
	}
	res.extra["absent_series"] = absentSeries
	res.extra["metrics_unparsed_lines"] = after.bad
	res.extra["traced_requests"] = len(samples)
	res.extra["layer_shares"] = serveShares(clientS, map[string]float64{
		"memtrace": stage("decode"), "accel": capture, "structrev": analyze + stage("detect") + stage("solve"),
		"serve": clientS - stageSum,
	})
	return nil
}

// serveShares turns per-layer seconds into shares of client time.
func serveShares(clientS float64, layers map[string]float64) []layerShare {
	var out []layerShare
	for l, s := range layers {
		out = append(out, layerShare{Layer: l, SelfMS: s * 1e3, Share: s / clientS})
	}
	sortShares(out)
	return out
}
