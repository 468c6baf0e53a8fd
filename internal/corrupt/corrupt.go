// Package corrupt applies deterministic, seeded corruption models to memory
// traces. The simulator in internal/accel emits a perfect transaction log;
// a real DRAM bus probe does not see one. Following the noisy-bus threat
// models of Hu et al. (arXiv:1903.03916) and Weerasena & Mishra
// (arXiv:2311.00579), this package degrades a clean memtrace.Trace post-hoc
// with four independent, composable models:
//
//   - transaction drop: probe undersampling misses individual bursts,
//   - burst splitting / coalescing: the probe observes transactions at a
//     granularity different from the accelerator's burst engine,
//   - bounded-window reordering: memory-controller scheduling reorders
//     nearby transactions while preserving coarse time order,
//   - co-tenant interference: a neighbour workload injects accesses in
//     address regions disjoint from the victim's footprint.
//
// All corruption is driven by a single seeded PRNG so equal (trace, Config)
// pairs always produce byte-identical corrupted traces, and a zero-effect
// Config returns a byte-identical copy — both properties are pinned by
// regression tests and are what makes the noise sweeps in
// internal/experiments reproducible.
package corrupt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"cnnrev/internal/memtrace"
)

// Config selects corruption models and their rates. The zero value disables
// every model: Apply becomes a deep copy. The json and query tags name each
// knob on revcnnd's request surface (internal/serve).
type Config struct {
	// Seed drives the single PRNG behind all enabled models. Equal seeds on
	// equal inputs corrupt identically.
	Seed int64 `json:"seed" query:"corrupt_seed"`

	// DropRate is the i.i.d. probability in [0,1] that any single burst
	// record is missed by the probe (undersampling).
	DropRate float64 `json:"drop_rate" query:"drop_rate"`

	// SplitRate is the probability in [0,1] that a multi-block burst is
	// observed as two separate transactions, cut at a uniformly random
	// block boundary.
	SplitRate float64 `json:"split_rate" query:"split_rate"`

	// CoalesceRate is the probability in [0,1] that a pair of adjacent,
	// contiguous, same-kind records is observed as one coarser transaction
	// (the inverse of SplitRate: a probe that integrates over longer
	// windows than the burst engine).
	CoalesceRate float64 `json:"coalesce_rate" query:"coalesce_rate"`

	// ReorderWindow bounds memory-controller reordering: each record may
	// move at most ReorderWindow positions from its true slot. The original
	// monotonic cycle sequence is reassigned to the shuffled records in
	// order, modelling a controller that reorders requests but issues them
	// back-to-back. 0 disables reordering.
	ReorderWindow int `json:"reorder_window" query:"reorder_window"`

	// InterferenceRate injects co-tenant traffic: for each original record
	// an independent coin with this probability adds one interfering access
	// at a cycle drawn from the trace's span.
	InterferenceRate float64 `json:"interference_rate" query:"interference_rate"`

	// InterferenceRegions is the number of disjoint co-tenant address
	// regions the injected accesses are spread over. Defaults to 2 when
	// InterferenceRate > 0.
	InterferenceRegions int `json:"interference_regions" query:"interference_regions"`

	// ProbeGranularityBlocks is the burst length, in blocks, at which the
	// probe observes the bus. The simulator's recorder coalesces a layer's
	// whole stream into a handful of giant burst records; a real probe sees
	// individual transactions. Whenever any model is enabled, records longer
	// than this are first chopped into consecutive chunks of at most this
	// size, so DropRate drops ~that fraction of *traffic* (not of layers)
	// and ReorderWindow permutes locally (not across layers). 0 defaults
	// to 16.
	ProbeGranularityBlocks int `json:"probe_granularity_blocks" query:"probe_granularity_blocks"`
}

// Enabled reports whether any corruption model is active.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.SplitRate > 0 || c.CoalesceRate > 0 ||
		c.ReorderWindow > 0 || c.InterferenceRate > 0
}

// Validate rejects rates outside [0,1], non-finite rates, and counts
// outside the bounds Apply can run in bounded time and memory. Errors name
// the knob by its request-surface name.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"drop_rate", c.DropRate},
		{"split_rate", c.SplitRate},
		{"coalesce_rate", c.CoalesceRate},
		{"interference_rate", c.InterferenceRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("%s must be in [0,1], got %g", r.name, r.v)
		}
	}
	if c.ReorderWindow < 0 || c.ReorderWindow > 1<<20 {
		return fmt.Errorf("reorder_window must be in [0,%d], got %d", 1<<20, c.ReorderWindow)
	}
	if c.InterferenceRegions < 0 || c.InterferenceRegions > 64 {
		return fmt.Errorf("interference_regions must be in [0,64], got %d", c.InterferenceRegions)
	}
	if c.ProbeGranularityBlocks < 0 || c.ProbeGranularityBlocks > 1<<20 {
		return fmt.Errorf("probe_granularity_blocks must be in [0,%d], got %d", 1<<20, c.ProbeGranularityBlocks)
	}
	return nil
}

// Severity is a scalar summary of how aggressive the configuration is,
// used by callers to scale analysis slack. It is a heuristic, not a
// probability: drops dominate because they shrink observed sizes.
func (c Config) Severity() float64 {
	s := c.DropRate + 0.5*c.InterferenceRate + 0.25*(c.SplitRate+c.CoalesceRate)
	if c.ReorderWindow > 0 {
		s += 0.01
	}
	return math.Min(s, 1)
}

// interferenceRegionBytes is the span of each co-tenant region; regions are
// separated by interferenceRegionGap so they can never be mistaken for the
// victim's guard-page-separated buffers or for each other.
const (
	interferenceRegionBytes = 1 << 16
	interferenceRegionGap   = 1 << 24
)

// maxRegranRecords bounds how many records regranulation may materialize.
// A hostile (codec-valid) trace can claim petabyte extents in a few records;
// chopping those at the configured granularity would allocate without bound.
// Oversized traces are instead observed at a proportionally coarser
// granularity, keeping Apply total and its output ~200 MB at worst. The
// bound sits above every real victim's chunk count (full AlexNet is ~4.9M
// chunks at the default granularity) so legitimate sweeps never coarsen.
const maxRegranRecords = 8 << 20

// Apply returns a corrupted copy of tr; tr itself is never modified. The
// trace is first regranulated to the probe's observation granularity, then
// the models run in a fixed order — interference injection, bounded
// reordering, burst splitting, burst coalescing, transaction drop — so a
// record can be split and then one half dropped, mirroring a probe that
// first sees the merged bus and then undersamples it.
//
// Regranulation, the interference merge and the bounded reorder write one
// output slice: the co-tenant accesses are drawn first (their number
// depends only on the regranulated length, known up front), the chunks and
// the cycle-sorted injections are merged straight into a slice of the final
// size, and the reorder permutes that slice in place through a window-sized
// ring. Coalescing and dropping then shrink it in place; only splitting,
// which grows it, writes a new one.
func Apply(tr *memtrace.Trace, cfg Config) *memtrace.Trace {
	out := &memtrace.Trace{BlockBytes: tr.BlockBytes}
	if !cfg.Enabled() || len(tr.Accesses) == 0 {
		out.Accesses = append([]memtrace.Access(nil), tr.Accesses...)
		return out
	}
	gran := uint64(16)
	if cfg.ProbeGranularityBlocks > 0 {
		gran = uint64(cfg.ProbeGranularityBlocks)
	}
	var totalBlocks uint64
	for _, a := range tr.Accesses {
		totalBlocks += uint64(a.Count)
	}
	if totalBlocks/gran > maxRegranRecords {
		gran = totalBlocks / maxRegranRecords
	}
	if gran > math.MaxUint32 {
		gran = math.MaxUint32
	}
	maxBlocks := uint32(gran)
	// Each record becomes ceil(Count/maxBlocks) chunks, and at least one.
	n := 0
	for _, a := range tr.Accesses {
		n += 1 + int((max(a.Count, 1)-1)/maxBlocks)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var inj injections
	if cfg.InterferenceRate > 0 {
		inj = drawInterference(tr, n, cfg, rng)
	}
	out.Accesses = regranulateMerge(tr.Accesses, maxBlocks, uint64(tr.BlockBytes), inj, n)
	if cfg.ReorderWindow > 0 {
		reorderBounded(out.Accesses, cfg.ReorderWindow, rng)
	}
	if cfg.SplitRate > 0 {
		out.Accesses = splitBursts(out.Accesses, uint64(out.BlockBytes), cfg.SplitRate, rng)
	}
	if cfg.CoalesceRate > 0 {
		out.Accesses = coalesceBursts(out.Accesses, uint64(out.BlockBytes), cfg.CoalesceRate, rng)
	}
	if cfg.DropRate > 0 {
		out.Accesses = dropRecords(out.Accesses, cfg.DropRate, rng)
	}
	return out
}

// injection is one co-tenant access before the merge: its cycle, and its
// address as an offset from the first interference region.
type injection struct {
	cycle uint64
	off   uint32 // region·interferenceRegionGap + offset in the region
	count uint8
	kind  memtrace.Kind
}

// injections is a cycle-sorted list of co-tenant accesses and the address
// their offsets count from.
type injections struct {
	base uint64
	list []injection
}

// access returns the i-th injection as a trace record.
func (inj injections) access(i int) memtrace.Access {
	j := inj.list[i]
	return memtrace.Access{Cycle: j.cycle, Addr: inj.base + uint64(j.off), Count: uint32(j.count), Kind: j.kind}
}

// drawInterference draws the co-tenant accesses for a regranulated trace of
// n records, in regions placed past the victim's highest address, far
// enough that region clustering never merges them with real buffers, and
// returns them sorted by cycle. Regranulation keeps every record's cycle and
// extent, so the span and footprint come from tr itself.
func drawInterference(tr *memtrace.Trace, n int, cfg Config, rng *rand.Rand) injections {
	accs := tr.Accesses
	regions := cfg.InterferenceRegions
	if regions <= 0 {
		regions = 2
	}
	if regions > 64 {
		regions = 64
	}
	// Cycles in a hostile (codec-valid) trace are untrusted and need not be
	// monotonic, so the span is the min/max over all records, not first/last.
	var maxEnd uint64
	loCycle, hiCycle := accs[0].Cycle, accs[0].Cycle
	for _, a := range accs {
		if e := a.End(tr.BlockBytes); e > maxEnd {
			maxEnd = e
		}
		if a.Cycle < loCycle {
			loCycle = a.Cycle
		}
		if a.Cycle > hiCycle {
			hiCycle = a.Cycle
		}
	}
	base := maxEnd + interferenceRegionGap
	if base < maxEnd || base > ^uint64(0)-uint64(regions+1)*interferenceRegionGap {
		// A hostile trace already occupies the top of the address space;
		// there is nowhere disjoint to inject, so leave it untouched.
		return injections{}
	}
	block := uint64(tr.BlockBytes)
	// One coin per regranulated record: reserve for the mean plus six
	// standard deviations, so the list is not regrown in practice.
	mean := cfg.InterferenceRate * float64(n)
	list := make([]injection, 0, int(mean+6*math.Sqrt(mean))+16)
	for range n {
		if rng.Float64() >= cfg.InterferenceRate {
			continue
		}
		region := uint64(rng.Intn(regions)) * interferenceRegionGap
		off := uint64(rng.Int63n(interferenceRegionBytes)) / block * block
		cyc := loCycle
		if hiCycle > loCycle {
			// A hostile span can exceed int64; clamp so Int63n never sees a
			// non-positive bound.
			span := hiCycle - loCycle
			if span >= math.MaxInt64 {
				span = math.MaxInt64 - 1
			}
			cyc += uint64(rng.Int63n(int64(span) + 1))
		}
		kind := memtrace.Read
		if rng.Intn(2) == 1 {
			kind = memtrace.Write
		}
		list = append(list, injection{cycle: cyc, off: uint32(region + off), count: uint8(1 + rng.Intn(4)), kind: kind})
	}
	return injections{base: base, list: sortByCycle(list, loCycle)}
}

// sortByCycle sorts injections by cycle, stably, so equal-cycle injections
// keep the order they were drawn in. It is a least-significant-digit radix
// sort on 8-bit digits of cycle-lo (every cycle is at least lo): each byte
// in which the cycles differ scatters the list into a second buffer, which
// makes it linear in the ~rate·n injections. It returns whichever buffer
// holds the result.
func sortByCycle(list []injection, lo uint64) []injection {
	var diff uint64
	for _, j := range list {
		diff |= j.cycle - lo
	}
	var buf []injection
	for shift := uint(0); shift < 64 && diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue // no cycle differs from lo in this byte
		}
		if buf == nil {
			buf = make([]injection, len(list))
		}
		var next [256]int
		for _, j := range list {
			next[byte((j.cycle-lo)>>shift)]++
		}
		at := 0
		for d, c := range next {
			next[d] = at
			at += c
		}
		for _, j := range list {
			d := byte((j.cycle - lo) >> shift)
			buf[next[d]] = j
			next[d]++
		}
		list, buf = buf, list
	}
	return list
}

// regranulateMerge writes accs chunked down to the probe's observation
// granularity — consecutive chunks of at most maxBlocks blocks, all
// carrying the source record's cycle stamp — merged by cycle with the
// injections into one slice of the final length. The merge is stable:
// victim records keep their relative order, and an injected access lands
// after victim records with the same stamp. n is the chunk count.
func regranulateMerge(accs []memtrace.Access, maxBlocks uint32, block uint64, inj injections, n int) []memtrace.Access {
	out := make([]memtrace.Access, 0, n+len(inj.list))
	j := 0
	for _, a := range accs {
		for ; j < len(inj.list) && inj.list[j].cycle < a.Cycle; j++ {
			out = append(out, inj.access(j))
		}
		for a.Count > maxBlocks {
			head := a
			head.Count = maxBlocks
			out = append(out, head)
			a.Addr += uint64(maxBlocks) * block
			a.Count -= maxBlocks
		}
		out = append(out, a)
	}
	for ; j < len(inj.list); j++ {
		out = append(out, inj.access(j))
	}
	return out
}

// reorderBounded shuffles records within a bounded window, in place, and
// reassigns the original cycle sequence in order, so timestamps stay
// monotonic while the address stream is locally permuted. It stable-sorts
// by the perturbed key i + U[0,window]: with every key within `window` of
// its index, no element can travel more than `window` positions in either
// direction. That is a counting sort over a ring of window+1 keys: record i
// waits in slot i mod (window+1) on its key's list, and once record i has
// been read no later record can take key i, so key i's list is written out
// then. No output position passes the record being read, and each record
// leaves its slot, and output position d takes record d's cycle from its
// slot, before the record window+1 places later reuses the slot. A trace
// no longer than its window sorts its keys instead (reorderShort), so the
// work and memory follow the trace, not the window.
func reorderBounded(accs []memtrace.Access, window int, rng *rand.Rand) {
	m := window + 1
	if m > len(accs) {
		reorderShort(accs, m, rng)
		return
	}
	held := make([]memtrace.Access, m) // record i waits in held[i mod m]
	// next[s] is the slot after s on its key's list, or -1; key k's list
	// hangs off the sentinel next[m + k mod m], and tail[k mod m] is its
	// last slot.
	next := make([]int32, 2*m)
	tail := make([]int32, m)
	for k := range tail {
		next[m+k], tail[k] = -1, int32(m+k)
	}
	// The key offsets are drawn a batch at a time, in record order, so the
	// generator runs in a loop of its own rather than between list updates.
	var offs [512]int32
	d, dSlot, iSlot := 0, 0, 0 // the next output position, d mod m, and i mod m
	for i := 0; i < len(accs)+window; i++ {
		if i < len(accs) {
			if i%len(offs) == 0 {
				for j := range offs[:min(len(offs), len(accs)-i)] {
					offs[j] = int32(rng.Intn(m))
				}
			}
			k := iSlot + int(offs[i%len(offs)])
			if k >= m {
				k -= m
			}
			held[iSlot], next[iSlot] = accs[i], -1
			next[tail[k]], tail[k] = int32(iSlot), int32(iSlot)
		}
		for s := next[m+iSlot]; s >= 0; s = next[s] {
			a := held[s]
			a.Cycle = held[dSlot].Cycle
			accs[d] = a
			d++
			if dSlot++; dSlot == m {
				dSlot = 0
			}
		}
		next[m+iSlot], tail[iSlot] = -1, int32(m+iSlot)
		if iSlot++; iSlot == m {
			iSlot = 0
		}
	}
}

// reorderShort is reorderBounded for fewer than m = window+1 records. It
// draws the same key offsets in the same order, packs each key i+off above
// its record index so that equal keys keep record order, as the ring's
// lists do, and sorts the packed keys. Keys stay below 2m and indexes
// below m, so the packing is exact for any window below 2^31, which the
// ring's int32 slots need too (Validate caps windows at 2^20).
func reorderShort(accs []memtrace.Access, m int, rng *rand.Rand) {
	keys := make([]uint64, len(accs))
	for i := range keys {
		keys[i] = uint64(i+rng.Intn(m))<<32 | uint64(i)
	}
	memtrace.SortAddrs(keys)
	orig := slices.Clone(accs)
	for d, k := range keys {
		a := orig[uint32(k)]
		a.Cycle = orig[d].Cycle
		accs[d] = a
	}
}

// splitBursts cuts multi-block bursts in two at a random block boundary.
func splitBursts(accs []memtrace.Access, block uint64, rate float64, rng *rand.Rand) []memtrace.Access {
	out := make([]memtrace.Access, 0, len(accs))
	for _, a := range accs {
		if a.Count < 2 || rng.Float64() >= rate {
			out = append(out, a)
			continue
		}
		k := uint32(1 + rng.Intn(int(a.Count-1)))
		head, tail := a, a
		head.Count = k
		tail.Addr = a.Addr + uint64(k)*block
		tail.Count = a.Count - k
		out = append(out, head, tail)
	}
	return out
}

// coalesceBursts merges adjacent contiguous same-kind records, emulating a
// probe that integrates over coarser windows than the burst engine. It
// works in place: the output never runs ahead of the input.
func coalesceBursts(accs []memtrace.Access, block uint64, rate float64, rng *rand.Rand) []memtrace.Access {
	out := accs[:0]
	for _, a := range accs {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.Kind == a.Kind && last.End(int(block)) == a.Addr &&
				uint64(last.Count)+uint64(a.Count) <= math.MaxUint32 &&
				rng.Float64() < rate {
				last.Count += a.Count
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// dropRecords removes each record independently with probability rate.
func dropRecords(accs []memtrace.Access, rate float64, rng *rand.Rand) []memtrace.Access {
	out := accs[:0]
	for _, a := range accs {
		if rng.Float64() < rate {
			continue
		}
		out = append(out, a)
	}
	return out
}
