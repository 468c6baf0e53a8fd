package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of the
// call. Spans stay in memory and are written out when the run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a job's root span
	Job     int    `json:"job"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	CPUUS   int64  `json:"cpu_us"`
	Alloc   uint64 `json:"alloc_bytes"`
}

// stageLayer maps a span name to the program layer it times.
var stageLayer = map[string]string{
	"job":              "bench",
	"request":          "serve",
	"capture":          "accel",
	"defense":          "defense",
	"corrupt":          "corrupt",
	"analyze":          "structrev",
	"analyze_tolerant": "structrev",
	"detect":           "structrev",
	"solve":            "structrev",
	"rank":             "core",
	"weights":          "weightrev",
}

// tracer collects spans. It is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span at probe from and returns its id.
func (t *tracer) begin(parent, job int, name string, from probe) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name, Layer: stageLayer[name],
		StartUS: from.wall.Sub(t.t0).Microseconds(),
	})
	return id
}

// end closes span id: its CPU time and allocation are the differences
// between the two probes.
func (t *tracer) end(id int, from, to probe) {
	s := &t.spans[id-1]
	s.EndUS = to.wall.Sub(t.t0).Microseconds()
	s.CPUUS = (to.cpu - from.cpu).Microseconds()
	s.Alloc = to.alloc - from.alloc
}

// add records a closed span and returns its id.
func (t *tracer) add(parent, job int, name string, from, to probe) int {
	id := t.begin(parent, job, name, from)
	t.end(id, from, to)
	return id
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	Count  int     `json:"count"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"`
	CPUMS  float64 `json:"cpu_ms"`
	AllocB float64 `json:"alloc_bytes"`
}

// aggregate sums spans by name. A span's self time is its duration minus
// the durations of its children.
func aggregate(spans []span) map[string]*spanAgg {
	child := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := map[string]*spanAgg{}
	for _, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		d := s.EndUS - s.StartUS
		a.Count++
		a.WallMS += float64(d) / 1e3
		a.SelfMS += float64(d-child[s.ID]) / 1e3
		a.CPUMS += float64(s.CPUUS) / 1e3
		a.AllocB += float64(s.Alloc)
	}
	return out
}

// layerShare is one layer's self time and its share of job wall time.
type layerShare struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// layerShares sums self time by layer over root spans' wall time, largest
// first.
func layerShares(spans []span) []layerShare {
	var rootMS float64
	self := map[string]float64{}
	for name, a := range aggregate(spans) {
		self[stageLayer[name]] += a.SelfMS
	}
	for _, s := range spans {
		if s.Parent == 0 {
			rootMS += float64(s.EndUS-s.StartUS) / 1e3
		}
	}
	var out []layerShare
	for l, ms := range self {
		sh := 0.0
		if rootMS > 0 {
			sh = ms / rootMS
		}
		out = append(out, layerShare{Layer: l, SelfMS: ms, Share: sh})
	}
	sortShares(out)
	return out
}

func sortShares(s []layerShare) {
	sort.Slice(s, func(i, j int) bool { return s[i].SelfMS > s[j].SelfMS })
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapSampler polls the live heap while it runs and keeps the maximum
// since the last take.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.observe()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := liveHeapBytes()
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// take returns the maximum seen since the previous take and resets it.
func (h *heapSampler) take() uint64 {
	h.observe()
	return h.max.Swap(0)
}

// close stops the sampler and waits for its goroutine to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}
