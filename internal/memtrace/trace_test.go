package memtrace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecorderMergesContiguousBursts(t *testing.T) {
	r := NewRecorder(4)
	r.Record(10, 100, 2, Read)
	r.Record(10, 108, 3, Read) // extends previous burst
	r.Record(10, 140, 1, Read) // gap: new record
	r.Record(10, 144, 1, Write)
	tr := r.Trace()
	if len(tr.Accesses) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(tr.Accesses), tr.Accesses)
	}
	if tr.Accesses[0].Count != 5 {
		t.Fatalf("merged count = %d, want 5", tr.Accesses[0].Count)
	}
	if tr.Blocks() != 7 {
		t.Fatalf("Blocks = %d, want 7", tr.Blocks())
	}
}

func TestRecorderRejectsUnaligned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unaligned address")
		}
	}()
	NewRecorder(8).Record(0, 4, 1, Read)
}

func TestRecordBytesRoundsUp(t *testing.T) {
	r := NewRecorder(8)
	r.RecordBytes(0, 0, 9, Write)
	tr := r.Trace()
	if tr.Accesses[0].Count != 2 {
		t.Fatalf("9 bytes at block 8 = %d blocks, want 2", tr.Accesses[0].Count)
	}
	r2 := NewRecorder(8)
	r2.RecordBytes(0, 0, 0, Write)
	if len(r2.Trace().Accesses) != 0 {
		t.Fatal("zero-byte record must be dropped")
	}
	// An unaligned burst records the aligned blocks covering it: bytes
	// [12, 21) touch blocks [8, 16) and [16, 24).
	r3 := NewRecorder(8)
	r3.RecordBytes(0, 12, 9, Read)
	if a := r3.Trace().Accesses; len(a) != 1 || a[0].Addr != 8 || a[0].Count != 2 {
		t.Fatalf("9 bytes at 12, block 8 = %+v, want one 2-block burst at 8", a)
	}
	// Bursts sharing a partial block do not merge: the bus moves that block
	// twice.
	r3.RecordBytes(0, 21, 3, Read)
	if a := r3.Trace().Accesses; len(a) != 2 || a[1].Addr != 16 || a[1].Count != 1 {
		t.Fatalf("3 bytes at 21 after [12, 21) = %+v, want a second 1-block burst at 16", a)
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	tr := &Trace{BlockBytes: 4, Accesses: []Access{
		{Cycle: 1, Addr: 4096, Count: 10, Kind: Read},
		{Cycle: 99, Addr: 8192, Count: 1, Kind: Write},
	}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockBytes != tr.BlockBytes || len(got.Accesses) != len(tr.Accesses) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range tr.Accesses {
		if got.Accesses[i] != tr.Accesses[i] {
			t.Fatalf("access %d: %+v != %+v", i, got.Accesses[i], tr.Accesses[i])
		}
	}
}

// TestTraceSerializationRoundTripLarge round-trips a trace big enough to
// exercise the fixed-record fast path across many bufio flushes, and checks
// the on-disk size against the documented layout (24-byte header + 21-byte
// records) so the format cannot drift.
func TestTraceSerializationRoundTripLarge(t *testing.T) {
	const n = 200_000
	tr := &Trace{BlockBytes: 64, Accesses: make([]Access, n)}
	for i := range tr.Accesses {
		tr.Accesses[i] = Access{
			Cycle: uint64(i) * 3,
			Addr:  uint64(i%4096) * 64,
			Count: uint32(i%7 + 1),
			Kind:  Kind(i % 2),
		}
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if want := 24 + n*21; buf.Len() != want {
		t.Fatalf("serialized size = %d bytes, want %d (format drift)", buf.Len(), want)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockBytes != tr.BlockBytes || len(got.Accesses) != n {
		t.Fatalf("round trip header mismatch: block=%d n=%d", got.BlockBytes, len(got.Accesses))
	}
	for i := range tr.Accesses {
		if got.Accesses[i] != tr.Accesses[i] {
			t.Fatalf("access %d: %+v != %+v", i, got.Accesses[i], tr.Accesses[i])
		}
	}
}

// TestReadTraceRejectsInvalidKind corrupts the direction byte of a record;
// silently accepting it would misclassify reads vs. writes downstream.
func TestReadTraceRejectsInvalidKind(t *testing.T) {
	tr := &Trace{BlockBytes: 4, Accesses: []Access{
		{Cycle: 1, Addr: 0, Count: 1, Kind: Read},
		{Cycle: 2, Addr: 4, Count: 1, Kind: Write},
	}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Kind byte of the second record: header (24) + one record (21) + 20.
	raw[24+21+20] = 2
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected error for invalid kind byte")
	}
	raw[24+21+20] = 0xFF
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected error for 0xFF kind byte")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace at all........"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

// TestReadTraceRejectsHighMagicGarbage pins the full-magic check: a header
// whose low 32 bits match but whose high word is garbage used to slip past
// the streaming reader (it validated only uint32(magic)).
func TestReadTraceRejectsHighMagicGarbage(t *testing.T) {
	tr := &Trace{BlockBytes: 4, Accesses: []Access{{Cycle: 1, Addr: 0, Count: 1, Kind: Write}}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[4:8], 0xDEADBEEF)
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected error for garbage high magic word")
	}
	if _, err := DecodeTrace(raw); err == nil {
		t.Fatal("DecodeTrace must agree on the garbage high magic word")
	}
}

// TestReadTraceRejectsAbsurdBlockSize pins the (0, MaxBlockBytes] bound: a
// multi-gigabyte block size used to decode "successfully" and feed absurd
// block arithmetic downstream.
func TestReadTraceRejectsAbsurdBlockSize(t *testing.T) {
	for _, block := range []uint64{0, MaxBlockBytes + 1, 1 << 33} {
		tr := &Trace{BlockBytes: 4, Accesses: []Access{{Cycle: 1, Addr: 0, Count: 1, Kind: Write}}}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		binary.LittleEndian.PutUint64(raw[8:16], block)
		if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
			t.Fatalf("expected error for block size %d", block)
		}
	}
}

// TestDecodersRejectOverflowingExtent pins the Addr + Count·block wrap check
// in both decode paths: a wrapped extent yields Interval{Lo > Hi}, which
// corrupts the analyzer's region index.
func TestDecodersRejectOverflowingExtent(t *testing.T) {
	tr := &Trace{BlockBytes: 64, Accesses: []Access{
		{Cycle: 1, Addr: ^uint64(0) - 128, Count: 1 << 20, Kind: Read},
	}}
	if got := tr.Accesses[0].End(tr.BlockBytes); got >= tr.Accesses[0].Addr {
		t.Fatalf("test premise broken: extent %#x did not wrap", got)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTrace(buf.Bytes()); err == nil {
		t.Fatal("DecodeTrace accepted a wrapping extent")
	}
	if _, err := ReadTrace(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadTrace accepted a wrapping extent")
	}
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted a wrapping extent")
	}
	// The exact boundary: End is exclusive, so the largest acceptable extent
	// ends at 2^64 - 1 (Addr = 2^64 - 1 - Count·block).
	edge := &Trace{BlockBytes: 64, Accesses: []Access{
		{Cycle: 1, Addr: ^uint64(0) - 64*5, Count: 5, Kind: Read},
	}}
	var ebuf bytes.Buffer
	if err := edge.Write(&ebuf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTrace(ebuf.Bytes()); err != nil {
		t.Fatalf("DecodeTrace rejected a non-wrapping edge extent: %v", err)
	}
}

// TestRecorderSaturatesBurstCount pins the uint32 coalescing guard: merging
// past MaxUint32 must split into a new record, not silently wrap.
func TestRecorderSaturatesBurstCount(t *testing.T) {
	r := NewRecorder(4)
	const first = uint32(0xFFFF_FFF0)
	r.Record(7, 0, first, Write)
	r.Record(7, uint64(first)*4, 0x20, Write) // would wrap uint32
	tr := r.Trace()
	if len(tr.Accesses) != 2 {
		t.Fatalf("got %d records, want 2 (split, not wrapped): %+v", len(tr.Accesses), tr.Accesses)
	}
	if tr.Accesses[0].Count != first || tr.Accesses[1].Count != 0x20 {
		t.Fatalf("counts %d,%d want %d,%d", tr.Accesses[0].Count, tr.Accesses[1].Count, first, 0x20)
	}
	if got, want := tr.Blocks(), uint64(first)+0x20; got != want {
		t.Fatalf("Blocks = %d, want %d", got, want)
	}
	// A merge that exactly reaches MaxUint32 still coalesces.
	r2 := NewRecorder(4)
	r2.Record(7, 0, first, Write)
	r2.Record(7, uint64(first)*4, 0xF, Write)
	if tr2 := r2.Trace(); len(tr2.Accesses) != 1 || tr2.Accesses[0].Count != 0xFFFF_FFFF {
		t.Fatalf("exact-fit merge failed: %+v", tr2.Accesses)
	}
}

func TestValidateBounds(t *testing.T) {
	if err := (&Trace{BlockBytes: 0}).Validate(); err == nil {
		t.Fatal("block size 0 must fail validation")
	}
	if err := (&Trace{BlockBytes: MaxBlockBytes + 1}).Validate(); err == nil {
		t.Fatal("oversized block must fail validation")
	}
	ok := &Trace{BlockBytes: 4, Accesses: []Access{{Addr: 16, Count: 3, Kind: Read}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := &Trace{BlockBytes: 4, Accesses: []Access{{Addr: 0, Count: 1, Kind: Kind(3)}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid kind must fail validation")
	}
}

func TestCoalesceIntervals(t *testing.T) {
	ivs := []Interval{{100, 200}, {200, 250}, {300, 400}, {50, 120}}
	got := CoalesceIntervals(ivs, 0)
	want := []Interval{{50, 250}, {300, 400}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// With a gap of 50 the two merge.
	if merged := CoalesceIntervals(ivs, 50); len(merged) != 1 {
		t.Fatalf("gap merge failed: %v", merged)
	}
	if CoalesceIntervals(nil, 0) != nil {
		t.Fatal("empty input should give nil")
	}
}

// Property: coalescing preserves coverage — every input point remains
// covered, and the output is sorted and separated by more than the gap,
// also when the intervals end at the top of the address space, where
// last.Hi+gap would wrap.
func TestQuickCoalesceInvariants(t *testing.T) {
	f := func(raw []uint16, gap16 uint16, nearTop bool) bool {
		var base uint64
		if nearTop {
			base = ^uint64(0) - math.MaxUint16 - 64
		}
		var ivs []Interval
		for i := 0; i+1 < len(raw); i += 2 {
			lo := base + uint64(raw[i])
			ivs = append(ivs, Interval{lo, lo + uint64(raw[i+1]%64) + 1})
		}
		for _, gap := range []uint64{0, uint64(gap16)} {
			out := CoalesceIntervals(ivs, gap)
			for i := 1; i < len(out); i++ {
				if out[i].Lo <= out[i-1].Hi || out[i].Lo-out[i-1].Hi <= gap {
					return false // must be sorted and separated by more than gap
				}
			}
			for _, iv := range ivs {
				covered := false
				for _, o := range out {
					if iv.Lo >= o.Lo && iv.Hi <= o.Hi {
						covered = true
						break
					}
				}
				if !covered {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{10, 20}
	if !iv.Contains(10) || iv.Contains(20) || iv.Bytes() != 10 {
		t.Fatal("Contains/Bytes wrong")
	}
	if !iv.Overlaps(Interval{19, 30}) || iv.Overlaps(Interval{20, 30}) {
		t.Fatal("Overlaps wrong")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n -= len(p)
	if f.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

func TestTraceWriteErrorPropagates(t *testing.T) {
	tr := &Trace{BlockBytes: 4}
	for i := 0; i < 100; i++ {
		tr.Accesses = append(tr.Accesses, Access{Addr: uint64(i) * 4, Count: 1})
	}
	if err := tr.Write(&failWriter{n: 8}); err == nil {
		t.Fatal("expected write error")
	}
}

func TestReadTraceTruncated(t *testing.T) {
	tr := &Trace{BlockBytes: 4, Accesses: []Access{{Addr: 0, Count: 1}, {Addr: 4, Count: 1}}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadTrace(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestReadTraceRejectsTrailingBytes: ReadTrace is the strict Decoder, so
// data past the declared records is an error, as it is for uploads.
func TestReadTraceRejectsTrailingBytes(t *testing.T) {
	tr := &Trace{BlockBytes: 4, Accesses: []Access{{Addr: 0, Count: 1}}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xAA)
	if _, err := ReadTrace(&buf); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: err = %v, want a trailing-data error", err)
	}
}

func TestReadTraceHugeCountHeader(t *testing.T) {
	// A header claiming 2^40 accesses must not allocate petabytes.
	tr := &Trace{BlockBytes: 4, Accesses: []Access{{Addr: 0, Count: 1}}}
	var buf bytes.Buffer
	_ = tr.Write(&buf)
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[16:24], 1<<40)
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected EOF error for bogus count")
	}
}
