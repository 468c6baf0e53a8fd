package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/structrev"
)

// noiseSweepSeeds are the corruption seeds each level is averaged over; the
// capture itself is deterministic (input seed 2, as in Table 3), so the
// seeds vary only which transactions are dropped/displaced.
var noiseSweepSeeds = []int64{1, 2, 3}

// noiseDropLevels are the swept transaction-drop rates; every level keeps
// the bounded reorder window at 16 so each point models a probe that both
// misses and misorders traffic.
var noiseDropLevels = []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1}

// noiseReorderWindow bounds transaction displacement at every sweep point.
const noiseReorderWindow = 16

// noiseInterferenceLevels are the swept co-tenant traffic rates (injected
// accesses per victim access), each spread over 4 disjoint regions.
var noiseInterferenceLevels = []float64{0.05, 0.25}

// noiseSolveBudget bounds each seed's attack. Heavy corruption widens the
// solver's size intervals enough that the candidate space itself explodes —
// that explosion IS the degradation signal, so a point that exhausts the
// budget is recorded as truncated rather than enumerated to completion.
const (
	noiseSolveTimeout       = 15 * time.Second
	noiseSolveMaxStructures = 20000
)

// NoiseSweepPoint is one (victim, corruption level) measurement, averaged
// over the corruption seeds.
type NoiseSweepPoint struct {
	Network string
	// Corruption level: DropRate-driven points have InterferenceRate 0 and
	// vice versa; both keep the reorder window.
	DropRate         float64
	InterferenceRate float64

	// Seeds is how many corruption seeds the point aggregates.
	Seeds int
	// TruthRetained counts seeds whose candidate set still contains the
	// true structure (the paper's success criterion).
	TruthRetained int
	// MeanCandidates is the candidate-set size averaged over seeds; failed
	// analyses count as 0 and are tallied in Failures.
	MeanCandidates float64
	// MeanSegments is the recovered layer count averaged over seeds.
	MeanSegments float64
	// MeanWriteHole is the measured write-coverage hole fraction averaged
	// over seeds — the analyzer's own estimate of the drop level.
	MeanWriteHole float64
	// Truncated counts seeds whose enumeration hit the per-seed solve
	// budget; their candidate counts and truth checks cover the
	// deterministic prefix found within it.
	Truncated int
	// Failures counts seeds where analysis or solving errored outright.
	Failures int
	Elapsed  time.Duration
}

// NoiseSweep measures structure-attack degradation under trace corruption
// for the given victims (default: the four Table 3 networks). Each victim is
// captured once; every sweep point re-corrupts that trace with seeded drop +
// bounded-reorder (or co-tenant interference) models and attacks the result
// with the tolerant analysis through core.AttackTrace.
func NoiseSweep(models []string) ([]NoiseSweepPoint, error) {
	if len(models) == 0 {
		models = []string{"lenet", "convnet", "alexnet", "squeezenet"}
	}
	var points []NoiseSweepPoint
	for _, m := range models {
		net, err := victim(m)
		if err != nil {
			return nil, err
		}
		opt := solverOptions(m)
		opt.MaxStructures = noiseSolveMaxStructures
		cap, err := core.Capture(net, accel.Config{}, 2)
		if err != nil {
			return nil, fmt.Errorf("%s: capture: %w", m, err)
		}
		truth := core.GroundTruthConfigs(net)
		in := core.TraceInput{Input: net.Input, ElemBytes: cap.Sim.Config().ElemBytes, Classes: net.NumClasses()}

		var cfgs []corrupt.Config
		for _, drop := range noiseDropLevels {
			cfgs = append(cfgs, corrupt.Config{DropRate: drop, ReorderWindow: noiseReorderWindow})
		}
		for _, ir := range noiseInterferenceLevels {
			cfgs = append(cfgs, corrupt.Config{
				ReorderWindow: noiseReorderWindow, InterferenceRate: ir, InterferenceRegions: 4,
			})
		}
		for _, cfg := range cfgs {
			pt := NoiseSweepPoint{
				Network: m, DropRate: cfg.DropRate, InterferenceRate: cfg.InterferenceRate,
				Seeds: len(noiseSweepSeeds),
			}
			start := time.Now()
			for _, seed := range noiseSweepSeeds {
				cfg.Seed = seed
				ctx, cancel := context.WithTimeout(context.Background(), noiseSolveTimeout)
				rep, err := core.AttackTrace(ctx, cap.Result.Trace, in, opt, core.StructureAttackSpec{Corrupt: cfg, Tolerant: true}, nil)
				cancel()
				switch {
				case err == nil:
				case truncated(rep, err):
					pt.Truncated++ // keep the deterministic prefix
				default:
					pt.Failures++
					continue
				}
				pt.MeanCandidates += float64(len(rep.Structures))
				pt.MeanSegments += float64(len(rep.Analysis.Segments))
				pt.MeanWriteHole += rep.Noise.WriteHoleFrac
				if core.FindTruth(rep.Structures, truth) >= 0 {
					pt.TruthRetained++
				}
			}
			n := float64(len(noiseSweepSeeds))
			pt.MeanCandidates /= n
			pt.MeanSegments /= n
			pt.MeanWriteHole /= n
			pt.Elapsed = time.Since(start)
			fmt.Fprintf(os.Stderr, "noise: %s drop=%.3f interference=%.2f truth=%d/%d candidates=%.1f truncated=%d failures=%d (%s)\n",
				pt.Network, pt.DropRate, pt.InterferenceRate, pt.TruthRetained, pt.Seeds,
				pt.MeanCandidates, pt.Truncated, pt.Failures, pt.Elapsed.Round(time.Millisecond))
			points = append(points, pt)
		}
	}
	return points, nil
}

// truncated reports whether an attack stopped at its budget — the deadline
// or the solver cap — with a deterministic prefix of the candidate set.
func truncated(rep *core.StructureReport, err error) bool {
	return rep != nil && (rep.Partial || errors.Is(err, structrev.ErrTooManyStructures))
}

// FormatNoiseSweep renders the sweep as a markdown document (the attack's
// degradation curves under a hostile probe), destined for
// results/noise_sweep.md.
func FormatNoiseSweep(points []NoiseSweepPoint) string {
	var b strings.Builder
	b.WriteString("# Structure attack under trace corruption\n\n")
	fmt.Fprintf(&b, "Each point corrupts one deterministic capture (input seed 2) with %d\n", len(noiseSweepSeeds))
	fmt.Fprintf(&b, "corruption seeds and runs the noise-tolerant analysis plus the full solver.\n")
	fmt.Fprintf(&b, "All points keep a bounded transaction-reorder window of %d; interference\n", noiseReorderWindow)
	b.WriteString("points add co-tenant traffic in 4 disjoint address regions instead of drops.\n")
	b.WriteString("`truth` counts seeds whose candidate set still contains the true structure;\n")
	b.WriteString("`write-hole` is the analyzer's own measured write-coverage loss.\n\n")

	byNet := map[string][]NoiseSweepPoint{}
	var order []string
	for _, p := range points {
		if _, ok := byNet[p.Network]; !ok {
			order = append(order, p.Network)
		}
		byNet[p.Network] = append(byNet[p.Network], p)
	}
	for _, net := range order {
		fmt.Fprintf(&b, "## %s\n\n", net)
		b.WriteString("| drop | interference | candidates | segments | truth | write-hole | truncated | failures | time |\n")
		b.WriteString("|------|--------------|------------|----------|-------|------------|-----------|----------|------|\n")
		for _, p := range byNet[net] {
			fmt.Fprintf(&b, "| %.3f | %.2f | %.1f | %.1f | %d/%d | %.3f | %d | %d | %s |\n",
				p.DropRate, p.InterferenceRate, p.MeanCandidates, p.MeanSegments,
				p.TruthRetained, p.Seeds, p.MeanWriteHole, p.Truncated, p.Failures,
				p.Elapsed.Round(time.Millisecond))
		}
		b.WriteString("\n")
	}
	return b.String()
}
