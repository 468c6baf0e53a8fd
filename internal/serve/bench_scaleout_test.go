package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// benchServeThroughput pushes b.N independent structure-attack jobs through
// a server with the given worker count and reports end-to-end jobs/s. The
// cache is disabled (every seed is distinct anyway) so each job pays the
// full pipeline; scaling beyond one worker requires spare cores — on a
// single-core runner the pair measures queueing overhead, not speedup.
func benchServeThroughput(b *testing.B, workers int) {
	s := New(Config{
		Workers:    workers,
		QueueDepth: 4096,
		CacheBytes: -1,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		sctx, scancel := ctxWithTimeout(b.Elapsed() + 120e9)
		defer scancel()
		if err := s.Shutdown(sctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
		ts.Close()
	}()
	var seed atomic.Int64
	b.SetParallelism(workers)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := fmt.Sprintf(`{"model":"lenet","seed":%d}`, seed.Add(1))
			resp, err := ts.Client().Post(ts.URL+"/v1/attack/simulate", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("simulate = %d", resp.StatusCode)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

func BenchmarkServeThroughput_1Workers(b *testing.B) { benchServeThroughput(b, 1) }
func BenchmarkServeThroughput_4Workers(b *testing.B) { benchServeThroughput(b, 4) }

// BenchmarkServeTraceUpload posts a golden trace to the trace endpoint of an
// in-process server with cache_bypass=1, so every request streams its
// upload into a job payload, runs the job and relays the result: LeNet's
// 14-record trace, where the service layer is most of the cost, and
// SqueezeNet's 28,078-record one. Run with -benchmem, B/op is the
// allocation per upload of server and client together.
func BenchmarkServeTraceUpload(b *testing.B) {
	benchTraceUploads(b, "cache_bypass=1&", "lenet", "squeezenet")
}

// BenchmarkServeTraceHit posts golden uploads the result cache already
// holds, so each request times the frontend's upload path alone: reading
// and checking the body, hashing it and writing the cached body back.
func BenchmarkServeTraceHit(b *testing.B) {
	benchTraceUploads(b, "", "lenet", "alexnet", "squeezenet")
}

// benchTraceUploads posts each named golden trace to a fresh in-process
// server, once before the timer starts, which fills the result cache, and
// then b.N times with query prepended to the victim's own parameters.
func benchTraceUploads(b *testing.B, query string, names ...string) {
	victimQuery := map[string]string{
		"lenet":      "inw=28&ind=1&classes=10",
		"alexnet":    "inw=227&ind=3&classes=1000",
		"squeezenet": "inw=227&ind=3&classes=1000",
	}
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			raw := goldenUpload(b, name+".trace")
			s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			ts := httptest.NewServer(s.Handler())
			defer func() {
				sctx, scancel := ctxWithTimeout(120e9)
				defer scancel()
				if err := s.Shutdown(sctx); err != nil {
					b.Errorf("shutdown: %v", err)
				}
				ts.Close()
			}()
			url := ts.URL + "/v1/attack/trace?" + query + victimQuery[name]
			post := func() {
				resp, err := ts.Client().Post(url, "application/octet-stream", bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("trace upload = %d", resp.StatusCode)
				}
			}
			post()
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}
