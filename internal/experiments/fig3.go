package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/structrev"
)

// Fig3Report summarizes the memory-access-pattern figure.
type Fig3Report struct {
	Model        string
	TraceRecords int
	TraceBlocks  uint64
	Segments     int
	Boundaries   []uint64 // cycle of each detected layer boundary
	Elapsed      time.Duration
}

// String renders the report.
func (r *Fig3Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — memory access pattern of %s\n", r.Model)
	fmt.Fprintf(&b, "trace: %d records, %d block transfers\n", r.TraceRecords, r.TraceBlocks)
	fmt.Fprintf(&b, "layer boundaries detected from RAW dependencies: %d\n", r.Segments)
	fmt.Fprintf(&b, "boundary cycles: %v\n", r.Boundaries)
	return b.String()
}

// Fig3 reproduces Figure 3: it runs AlexNet (or another model) on the
// accelerator and, when w is non-nil, writes the address-versus-cycle
// series as CSV (cycle, address, kind, blocks, segment) — the data behind
// the paper's scatter plot — with the RAW-derived layer boundaries marked.
func Fig3(model string, w io.Writer) (*Fig3Report, error) {
	net, err := victim(model)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cap, err := core.Capture(net, accel.Config{}, 2)
	if err != nil {
		return nil, err
	}
	elem := cap.Sim.Config().ElemBytes
	a, err := structrev.Analyze(cap.Result.Trace, net.Input.Len()*elem, elem)
	if err != nil {
		return nil, err
	}
	rep := &Fig3Report{
		Model:        model,
		TraceRecords: len(cap.Result.Trace.Accesses),
		TraceBlocks:  cap.Result.Trace.Blocks(),
		Segments:     len(a.Segments),
		Elapsed:      time.Since(start),
	}
	for _, seg := range a.Segments {
		rep.Boundaries = append(rep.Boundaries, seg.StartCycle)
	}
	if w != nil {
		fmt.Fprintln(w, "cycle,addr,kind,blocks,segment")
		seg := 0
		for _, acc := range cap.Result.Trace.Accesses {
			for seg+1 < len(a.Segments) && acc.Cycle >= a.Segments[seg+1].StartCycle {
				seg++
			}
			kind := "R"
			if acc.Kind == memtrace.Write {
				kind = "W"
			}
			fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", acc.Cycle, acc.Addr, kind, acc.Count, seg)
		}
	}
	return rep, nil
}
