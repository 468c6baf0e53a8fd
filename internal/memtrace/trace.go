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

// decodeAccess parses one 21-byte record, rejecting direction bytes that
// are neither Read nor Write: silently coercing a corrupt byte into a Kind
// would misclassify reads versus writes downstream, where the structure
// attack's RAW segmentation depends on the distinction. It also rejects
// records whose byte extent Addr + Count·blockBytes wraps past 2^64: such an
// access yields an inverted Interval{Lo > Hi}, which corrupts the region
// index and segmentation on hostile uploads.
func decodeAccess(rec []byte, blockBytes uint64) (Access, error) {
	if rec[20] > uint8(Write) {
		return Access{}, fmt.Errorf("invalid kind %d", rec[20])
	}
	a := Access{
		Cycle: binary.LittleEndian.Uint64(rec[0:8]),
		Addr:  binary.LittleEndian.Uint64(rec[8:16]),
		Count: binary.LittleEndian.Uint32(rec[16:20]),
		Kind:  Kind(rec[20]),
	}
	// Count·blockBytes cannot itself overflow: Count < 2^32 and blockBytes
	// ≤ MaxBlockBytes = 2^20, so the product stays below 2^52.
	if span := uint64(a.Count) * blockBytes; a.Addr > ^uint64(0)-span {
		return Access{}, fmt.Errorf("extent %#x+%d blocks overflows the address space", a.Addr, a.Count)
	}
	return a, nil
}

// DecodeTrace parses a serialized trace from an in-memory buffer — the
// hardened entry point for untrusted input (e.g. service uploads). Knowing
// the total input length up front, it validates the header's declared record
// count against the bytes actually present before any allocation: a forged
// count can never make the decoder allocate more than the input itself
// could hold. Block sizes outside (0, MaxBlockBytes] and trailing bytes
// past the declared records are rejected, which makes the accepted encoding
// canonical — any buffer DecodeTrace accepts re-encodes via Write to the
// identical bytes. The records decode straight into the returned trace's
// exactly sized slice, through the streaming Decoder's header and record
// checks.
func DecodeTrace(data []byte) (*Trace, error) {
	if len(data) < traceHeaderBytes {
		return nil, fmt.Errorf("memtrace: decode: %d bytes is shorter than the %d-byte header", len(data), traceHeaderBytes)
	}
	block, n, err := parseHeader(data[:traceHeaderBytes])
	if err != nil {
		return nil, err
	}
	body := uint64(len(data) - traceHeaderBytes)
	if n > body/accessRecordBytes {
		return nil, fmt.Errorf("memtrace: decode: header declares %d records but only %d bytes follow", n, body)
	}
	if n*accessRecordBytes != body {
		return nil, fmt.Errorf("memtrace: decode: %d trailing bytes past %d declared records", body-n*accessRecordBytes, n)
	}
	accs := make([]Access, n)
	if err := decodeRecords(accs, data[traceHeaderBytes:], block, 0); err != nil {
		return nil, err
	}
	return &Trace{BlockBytes: int(block), Accesses: accs}, nil
}

// ReadTrace deserializes a trace written by Write from a stream of unknown
// length. It is the streaming Decoder drained into one trace, so it accepts
// exactly the inputs DecodeTrace accepts: a forged record count hits EOF
// instead of allocating, and data past the declared records is an error.
func ReadTrace(r io.Reader) (*Trace, error) {
	d := NewDecoder(r)
	var accs []Access
	for {
		batch, err := d.Next()
		if err == io.EOF {
			return &Trace{BlockBytes: d.BlockBytes(), Accesses: accs}, nil
		}
		if err != nil {
			return nil, err
		}
		accs = append(accs, batch...)
	}
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
