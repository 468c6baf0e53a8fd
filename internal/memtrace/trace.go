// Package memtrace models the off-chip memory side channel of the paper's
// threat model: the adversary observes, for every DRAM transaction, its
// address, direction (read or write) and timing, but never plaintext data
// (values are encrypted). Traces are recorded by the accelerator simulator
// and consumed by the reverse-engineering attacks.
package memtrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Kind is the direction of a memory access.
type Kind uint8

const (
	// Read is a DRAM read transaction.
	Read Kind = iota
	// Write is a DRAM write transaction.
	Write
)

// String returns "R" or "W".
func (k Kind) String() string {
	if k == Read {
		return "R"
	}
	return "W"
}

// Access is one coalesced burst of DRAM transactions: Count consecutive
// blocks starting at Addr, all in the same direction, issued at Cycle.
// Coalescing loses no information an adversary cares about — a bus probe
// could apply the same run-length compression — and keeps traces of large
// networks tractable.
type Access struct {
	Cycle uint64
	Addr  uint64
	Count uint32
	Kind  Kind
}

// End returns the first block address past the burst.
func (a Access) End(blockBytes int) uint64 {
	return a.Addr + uint64(a.Count)*uint64(blockBytes)
}

// Trace is a complete observed memory trace.
type Trace struct {
	// BlockBytes is the DRAM transaction granularity in bytes.
	BlockBytes int
	// Accesses in issue order.
	Accesses []Access
}

// Blocks returns the total number of block transactions in the trace.
func (t *Trace) Blocks() uint64 {
	var n uint64
	for _, a := range t.Accesses {
		n += uint64(a.Count)
	}
	return n
}

// LastCycle returns the cycle of the final access, or 0 for an empty trace.
func (t *Trace) LastCycle() uint64 {
	if len(t.Accesses) == 0 {
		return 0
	}
	return t.Accesses[len(t.Accesses)-1].Cycle
}

// Validate checks the structural invariants every decoder enforces — a block
// size in (0, MaxBlockBytes] and no access whose byte extent wraps the
// address space. Analysis entry points call it on traces that arrive
// in-memory (bypassing DecodeTrace/ReadTrace), so a hand-built hostile trace
// cannot feed inverted intervals into downstream interval arithmetic.
func (t *Trace) Validate() error {
	if t.BlockBytes <= 0 || t.BlockBytes > MaxBlockBytes {
		return fmt.Errorf("memtrace: implausible block size %d", t.BlockBytes)
	}
	for i, a := range t.Accesses {
		if span := uint64(a.Count) * uint64(t.BlockBytes); a.Addr > ^uint64(0)-span {
			return fmt.Errorf("memtrace: access %d: extent %#x+%d blocks overflows the address space", i, a.Addr, a.Count)
		}
		if a.Kind > Write {
			return fmt.Errorf("memtrace: access %d: invalid kind %d", i, a.Kind)
		}
	}
	return nil
}

const traceMagic = uint32(0xC99A7E01)

// On-disk layout (all little-endian): a 24-byte header of three uint64s
// (magic, block size, access count) followed by one 21-byte record per
// access — cycle (8), addr (8), count (4), kind (1). The fixed-size record
// buffers below keep serialization allocation-free; the reflection-based
// binary.Write/Read path cost one interface allocation per field per access,
// which dominated wall-clock on multi-million-access traces.
const (
	traceHeaderBytes  = 3 * 8
	accessRecordBytes = 8 + 8 + 4 + 1
)

// Write serializes the trace in a compact little-endian binary format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [traceHeaderBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(traceMagic))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(t.BlockBytes))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(t.Accesses)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("memtrace: write header: %w", err)
	}
	var rec [accessRecordBytes]byte
	for _, a := range t.Accesses {
		binary.LittleEndian.PutUint64(rec[0:8], a.Cycle)
		binary.LittleEndian.PutUint64(rec[8:16], a.Addr)
		binary.LittleEndian.PutUint32(rec[16:20], a.Count)
		rec[20] = byte(a.Kind)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MaxBlockBytes bounds the block size DecodeTrace accepts. Real DRAM
// transaction granularities are tens of bytes; a megabyte is already absurd,
// and the bound keeps downstream block arithmetic far from overflow.
const MaxBlockBytes = 1 << 20

// parseHeader is the header rule: it validates the 24-byte header and
// returns its block size and declared record count.
func parseHeader(hdr []byte) (block, n uint64, err error) {
	magic := binary.LittleEndian.Uint64(hdr[0:8])
	block = binary.LittleEndian.Uint64(hdr[8:16])
	n = binary.LittleEndian.Uint64(hdr[16:24])
	if magic != uint64(traceMagic) {
		return 0, 0, fmt.Errorf("memtrace: decode: bad magic %#x", magic)
	}
	if block == 0 || block > MaxBlockBytes {
		return 0, 0, fmt.Errorf("memtrace: decode: implausible block size %d", block)
	}
	return block, n, nil
}

// checkRecords is the per-record rule, applied to recs, whole records
// numbered from first. It rejects direction bytes that are neither Read nor
// Write: silently coercing a corrupt byte into a Kind would misclassify
// reads versus writes downstream, where the structure attack's RAW
// segmentation depends on the distinction. It also rejects records whose
// byte extent Addr + Count·blockBytes wraps past 2^64: such an access
// yields an inverted Interval{Lo > Hi}, which corrupts the region index
// and segmentation on hostile uploads.
func checkRecords(recs []byte, blockBytes, first uint64) error {
	for i := first; len(recs) > 0; i++ {
		rec := recs[:accessRecordBytes]
		recs = recs[accessRecordBytes:]
		if rec[20] > uint8(Write) {
			return fmt.Errorf("memtrace: decode: access %d: invalid kind %d", i, rec[20])
		}
		addr := binary.LittleEndian.Uint64(rec[8:16])
		count := binary.LittleEndian.Uint32(rec[16:20])
		// Count·blockBytes cannot itself overflow: Count < 2^32 and
		// blockBytes ≤ MaxBlockBytes = 2^20, so the product stays below 2^52.
		if addr > ^uint64(0)-uint64(count)*blockBytes {
			return fmt.Errorf("memtrace: decode: access %d: extent %#x+%d blocks overflows the address space", i, addr, count)
		}
	}
	return nil
}

// CheckTrace checks data, a serialized trace or the part of one that has
// arrived so far, against the header and per-record rules without
// allocating. checked is what an earlier call on a shorter part of the same
// trace returned, or 0, so a trace that arrives in pieces has each record
// checked once; the result is the length of data this call has passed: the
// header and every complete declared record. With final false more bytes
// may follow, and only what is present is judged; with final true data is
// the whole trace, and a short header or missing records are errors too.
//
// Problems are reported in one order, and with the same text, however the
// trace is split: a bad header, then the first bad record, then data past
// the declared records, then missing records. The declared record count
// is only compared with the bytes present; nothing is sized by it.
// CheckTrace(data, 0, true) fails exactly when DecodeTrace(data) does,
// with the same error.
func CheckTrace(data []byte, checked int, final bool) (int, error) {
	if len(data) < traceHeaderBytes {
		if final {
			return 0, fmt.Errorf("memtrace: decode: %d bytes is shorter than the %d-byte header", len(data), traceHeaderBytes)
		}
		return 0, nil
	}
	block, n, err := parseHeader(data[:traceHeaderBytes])
	if err != nil {
		return 0, err
	}
	body := uint64(len(data) - traceHeaderBytes)
	whole := min(n, body/accessRecordBytes)
	from := max(checked, traceHeaderBytes)
	checked = traceHeaderBytes + int(whole)*accessRecordBytes
	if from < checked {
		if err := checkRecords(data[from:checked], block, uint64(from-traceHeaderBytes)/accessRecordBytes); err != nil {
			return from, err
		}
	}
	if whole == n && body > n*accessRecordBytes {
		return checked, fmt.Errorf("memtrace: decode: trailing data past %d declared records", n)
	}
	if final && whole < n {
		return checked, fmt.Errorf("memtrace: decode: header declares %d records but only %d bytes follow", n, body)
	}
	return checked, nil
}

// DecodeTrace parses a serialized trace from an in-memory buffer — the
// hardened entry point for untrusted input, and the only code that turns
// trace bytes into Access values. It accepts exactly what CheckTrace
// accepts as a whole trace, and fails with CheckTrace's error. The check
// runs first, so a forged record count is caught before anything is
// allocated, and the records then decode straight into the returned
// trace's exactly sized slice. Block sizes outside (0, MaxBlockBytes] and
// data past the declared records are rejected, which makes the accepted
// encoding canonical: any buffer DecodeTrace accepts re-encodes via Write
// to the identical bytes.
func DecodeTrace(data []byte) (*Trace, error) {
	if _, err := CheckTrace(data, 0, true); err != nil {
		return nil, err
	}
	recs := data[traceHeaderBytes:]
	accs := make([]Access, len(recs)/accessRecordBytes)
	for i := range accs {
		rec := recs[i*accessRecordBytes:][:accessRecordBytes]
		accs[i] = Access{
			Cycle: binary.LittleEndian.Uint64(rec[0:8]),
			Addr:  binary.LittleEndian.Uint64(rec[8:16]),
			Count: binary.LittleEndian.Uint32(rec[16:20]),
			Kind:  Kind(rec[20]),
		}
	}
	return &Trace{BlockBytes: int(binary.LittleEndian.Uint64(data[8:16])), Accesses: accs}, nil
}

// ReadTrace deserializes a trace written by Write from r: it reads r to
// the end and decodes the bytes with DecodeTrace, so it accepts exactly
// what DecodeTrace accepts. A forged record count buys no memory, because
// the buffer grows only with the bytes r yields.
func ReadTrace(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("memtrace: read: %w", err)
	}
	return DecodeTrace(data)
}

// Recorder accumulates accesses during simulation, merging bursts that
// extend the previous access contiguously in the same direction and cycle
// window.
type Recorder struct {
	BlockBytes int
	accesses   []Access
}

// NewRecorder returns a recorder for the given block granularity.
func NewRecorder(blockBytes int) *Recorder {
	if blockBytes <= 0 {
		panic("memtrace: block size must be positive")
	}
	return &Recorder{BlockBytes: blockBytes}
}

// Record appends a burst of count blocks starting at byte address addr.
// addr must be block-aligned.
func (r *Recorder) Record(cycle uint64, addr uint64, count uint32, kind Kind) {
	if count == 0 {
		return
	}
	if addr%uint64(r.BlockBytes) != 0 {
		panic(fmt.Sprintf("memtrace: unaligned address %#x (block %d)", addr, r.BlockBytes))
	}
	if n := len(r.accesses); n > 0 {
		last := &r.accesses[n-1]
		if last.Kind == kind && last.End(r.BlockBytes) == addr && last.Cycle == cycle {
			// Coalesce only while the merged count fits in uint32; a
			// pathological layer size must start a fresh record rather than
			// silently wrap the burst length.
			if uint64(last.Count)+uint64(count) <= math.MaxUint32 {
				last.Count += count
				return
			}
		}
	}
	r.accesses = append(r.accesses, Access{Cycle: cycle, Addr: addr, Count: count, Kind: kind})
}

// RecordBytes records the burst of aligned blocks covering the byteLen bytes
// [addr, addr+byteLen), the way a bus moves whole blocks: an unaligned start
// rounds down to its block and the end rounds up. A block-aligned addr
// records ceil(byteLen/BlockBytes) blocks from addr.
func (r *Recorder) RecordBytes(cycle uint64, addr uint64, byteLen int, kind Kind) {
	if byteLen <= 0 {
		return
	}
	b := uint64(r.BlockBytes)
	lo := addr - addr%b
	blocks := (addr + uint64(byteLen) - lo + b - 1) / b
	r.Record(cycle, lo, uint32(blocks), kind)
}

// Trace returns the recorded trace. The recorder must not be used afterward.
func (r *Recorder) Trace() *Trace {
	return &Trace{BlockBytes: r.BlockBytes, Accesses: r.accesses}
}

// TraceInto fills t with the recorded trace without copying: t.Accesses
// shares the recorder's backing array and stays valid only until the next
// Record or Reset. Reusable simulation sessions use this to hand a trace
// view to the caller without per-run allocation; use Trace (or copy) when
// the trace must outlive the recorder.
func (r *Recorder) TraceInto(t *Trace) {
	t.BlockBytes = r.BlockBytes
	t.Accesses = r.accesses
}

// Reset clears the recorder for a fresh run while retaining the accumulated
// capacity, so a recorder reused across many inferences reaches a
// zero-allocation steady state once it has seen the largest trace.
func (r *Recorder) Reset() { r.accesses = r.accesses[:0] }

// Reserve grows the recorder's capacity to hold at least n accesses without
// reallocating. Simulators call it with a transaction-count estimate derived
// from the network's tiling so even the first run records without growth
// copies.
func (r *Recorder) Reserve(n int) {
	if n > cap(r.accesses) {
		grown := make([]Access, len(r.accesses), n)
		copy(grown, r.accesses)
		r.accesses = grown
	}
}

// Len returns the number of coalesced accesses recorded so far.
func (r *Recorder) Len() int { return len(r.accesses) }

// Interval is a half-open byte-address range [Lo, Hi).
type Interval struct {
	Lo, Hi uint64
}

// Bytes returns the length of the interval.
func (iv Interval) Bytes() uint64 { return iv.Hi - iv.Lo }

// Contains reports whether addr lies in the interval.
func (iv Interval) Contains(addr uint64) bool { return addr >= iv.Lo && addr < iv.Hi }

// Overlaps reports whether two intervals share any address.
func (iv Interval) Overlaps(o Interval) bool { return iv.Lo < o.Hi && o.Lo < iv.Hi }

// CoalesceIntervals merges a set of address intervals into maximal
// non-overlapping intervals, joining neighbors separated by at most gap
// bytes. This is how the adversary clusters observed addresses into data
// structures ("FMAPs and filters are stored as arrays... each in its own
// contiguous memory locations").
func CoalesceIntervals(ivs []Interval, gap uint64) []Interval {
	sorted := slices.Clone(ivs)
	SortIntervals(sorted)
	return CoalesceSorted(sorted, gap)
}

// CoalesceSorted is CoalesceIntervals over intervals already sorted by Lo
// (see SortIntervals); it leaves sorted unchanged.
func CoalesceSorted(sorted []Interval, gap uint64) []Interval {
	var out []Interval
	for _, iv := range sorted {
		out = AppendCoalesced(out, iv, gap)
	}
	return out
}

// AppendCoalesced adds iv to set, a coalesced set none of whose intervals
// starts after iv.Lo, and returns the result: iv joins the last interval
// when the two lie within gap bytes, and is appended otherwise. A sweep
// over intervals sorted by Lo builds CoalesceSorted's result with it one
// interval at a time.
func AppendCoalesced(set []Interval, iv Interval, gap uint64) []Interval {
	if n := len(set); n > 0 {
		last := &set[n-1]
		// iv.Lo <= last.Hi+gap without the sum wrapping past 2^64: a
		// hostile trace may place extents at the top of the address space.
		if iv.Lo <= last.Hi || iv.Lo-last.Hi <= gap {
			last.Hi = max(last.Hi, iv.Hi)
			return set
		}
	}
	return append(set, iv)
}
