package structrev

import (
	"sync"
	"testing"

	"cnnrev/internal/corrupt"
)

var (
	benchOnce   sync.Once
	benchCorpus []namedTrace
)

// benchTraces returns the committed golden traces plus the output-stationary
// SqueezeNet trace as a probe sees it under 5% co-tenant interference and
// reorder window 16 (corruption seed 1): about a million records, the
// largest trace the noisy-probe workload analyzes.
func benchTraces(b *testing.B) []namedTrace {
	b.Helper()
	benchOnce.Do(func() {
		for _, nt := range goldenTraces(b) {
			benchCorpus = append(benchCorpus, nt)
			if nt.name == "squeezenet" {
				noisy := corrupt.Apply(nt.tr, corrupt.Config{Seed: 1, InterferenceRate: 0.05, ReorderWindow: 16})
				benchCorpus = append(benchCorpus, namedTrace{"squeezenet+interference", noisy, nt.inputBytes})
			}
		}
	})
	return benchCorpus
}

// BenchmarkAnalyze_Strict and BenchmarkAnalyze_Tolerant time one analysis
// per trace and report its allocations; records is the trace length, so
// ns/op ÷ records is the per-record cost.
func BenchmarkAnalyze_Strict(b *testing.B)   { benchmarkAnalyze(b, false) }
func BenchmarkAnalyze_Tolerant(b *testing.B) { benchmarkAnalyze(b, true) }

func benchmarkAnalyze(b *testing.B, tolerant bool) {
	for _, nt := range benchTraces(b) {
		b.Run(nt.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(nt.tr.Accesses)), "records")
			for i := 0; i < b.N; i++ {
				var err error
				if tolerant {
					_, err = AnalyzeTolerant(nt.tr, nt.inputBytes, 4, TolerantOptions{})
				} else {
					_, err = Analyze(nt.tr, nt.inputBytes, 4)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
