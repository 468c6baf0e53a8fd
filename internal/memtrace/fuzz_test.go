package memtrace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzAccesses deterministically builds an access list from raw fuzz bytes:
// each full 21-byte chunk becomes one record with a valid direction byte.
// The address top bit is cleared so the burst extent Addr + Count·block
// (< 2^63 + 2^52) never wraps — the decoders now reject wrapping extents, and
// this helper must only build traces Write→Decode round-trips.
func fuzzAccesses(raw []byte) []Access {
	n := len(raw) / accessRecordBytes
	accs := make([]Access, 0, n)
	for i := 0; i < n; i++ {
		rec := raw[i*accessRecordBytes:][:accessRecordBytes]
		accs = append(accs, Access{
			Cycle: binary.LittleEndian.Uint64(rec[0:8]),
			Addr:  binary.LittleEndian.Uint64(rec[8:16]) &^ (1 << 63),
			Count: binary.LittleEndian.Uint32(rec[16:20]),
			Kind:  Kind(rec[20] & 1),
		})
	}
	return accs
}

func sameAccesses(a, b []Access) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzTraceRoundTrip checks that any trace built from arbitrary field values
// survives Write → DecodeTrace and Write → ReadTrace unchanged.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(4, []byte{})
	f.Add(64, bytes.Repeat([]byte{0xA5}, accessRecordBytes*3))
	f.Add(1, bytes.Repeat([]byte{0xFF}, accessRecordBytes+7))
	f.Fuzz(func(t *testing.T, block int, raw []byte) {
		if block <= 0 || block > MaxBlockBytes {
			block = 4
		}
		tr := &Trace{BlockBytes: block, Accesses: fuzzAccesses(raw)}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		dec, err := DecodeTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("DecodeTrace of Write output: %v", err)
		}
		if dec.BlockBytes != tr.BlockBytes || !sameAccesses(dec.Accesses, tr.Accesses) {
			t.Fatalf("DecodeTrace round-trip mismatch: got %d accesses block %d, want %d accesses block %d",
				len(dec.Accesses), dec.BlockBytes, len(tr.Accesses), tr.BlockBytes)
		}
		rd, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace of Write output: %v", err)
		}
		if rd.BlockBytes != tr.BlockBytes || !sameAccesses(rd.Accesses, tr.Accesses) {
			t.Fatal("ReadTrace round-trip mismatch")
		}
	})
}

// FuzzTraceDecode feeds arbitrary bytes to both decode paths: they must
// never panic, DecodeTrace's allocation must be bounded by the input length
// (not the header's claim), any accepted buffer must be canonical —
// re-encoding reproduces the input byte for byte — and both accept exactly
// the same inputs.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte{})
	// A valid empty trace.
	var empty bytes.Buffer
	(&Trace{BlockBytes: 64}).Write(&empty)
	f.Add(empty.Bytes())
	// A header that declares far more records than the buffer holds.
	forged := append([]byte(nil), empty.Bytes()...)
	binary.LittleEndian.PutUint64(forged[16:24], 1<<40)
	f.Add(forged)
	f.Add(overflowExtentBytes())
	f.Add(highMagicBytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := DecodeTrace(raw)
		if err == nil {
			if want := (len(raw) - traceHeaderBytes) / accessRecordBytes; len(tr.Accesses) != want {
				t.Fatalf("decoded %d accesses from a buffer that holds %d", len(tr.Accesses), want)
			}
			var re bytes.Buffer
			if err := tr.Write(&re); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(re.Bytes(), raw) {
				t.Fatal("accepted buffer is not canonical: re-encoding differs")
			}
			// The streaming reader accepts the same buffer and agrees on the
			// contents.
			rd, err := ReadTrace(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("ReadTrace rejected a DecodeTrace-accepted buffer: %v", err)
			}
			if rd.BlockBytes != tr.BlockBytes || !sameAccesses(rd.Accesses, tr.Accesses) {
				t.Fatal("ReadTrace and DecodeTrace disagree on an accepted buffer")
			}
			return
		}
		// Both accept exactly the same inputs: the streaming reader rejects
		// what the strict decoder rejects, trailing bytes included.
		if _, rerr := ReadTrace(bytes.NewReader(raw)); rerr == nil {
			t.Fatalf("ReadTrace accepted a buffer DecodeTrace rejects: %v", err)
		}
	})
}

// FuzzTraceDecodeStream checks a trace the way revcnnd checks an upload:
// CheckTrace sees the same bytes arrive in two chunkings the fuzzer
// chooses. Each chunking is a list of step sizes, the byte counts of
// successive deliveries (zero is a delivery of nothing), with whatever
// the steps leave arriving last together with the end of the body. Both
// chunkings must reach the same verdict with the same error text, and
// that verdict must be DecodeTrace's: the check accepts exactly what
// DecodeTrace accepts, however the bytes arrive.
func FuzzTraceDecodeStream(f *testing.F) {
	// The first chunking of each seed delivers one byte at a time, the
	// second in uneven pieces that split the header and records.
	oneByte := func(raw []byte) []byte { return bytes.Repeat([]byte{1}, len(raw)) }
	uneven := []byte{3, 21, 0, 7, 40, 1, 19}
	add := func(raw []byte) { f.Add(raw, oneByte(raw), uneven) }
	add([]byte{})
	var empty bytes.Buffer
	(&Trace{BlockBytes: 64}).Write(&empty)
	add(empty.Bytes())
	forged := append([]byte(nil), empty.Bytes()...)
	binary.LittleEndian.PutUint64(forged[16:24], 1<<40)
	add(forged)
	add(overflowExtentBytes())
	add(highMagicBytes())
	// A multi-record trace, plus the same trace with trailing bytes.
	var multi bytes.Buffer
	(&Trace{BlockBytes: 4, Accesses: []Access{
		{Cycle: 1, Addr: 0, Count: 2, Kind: Read},
		{Cycle: 2, Addr: 8, Count: 1, Kind: Write},
		{Cycle: 3, Addr: 0, Count: 1, Kind: Read},
	}}).Write(&multi)
	add(multi.Bytes())
	add(append(append([]byte(nil), multi.Bytes()...), 0x5A))
	// Three trailing bytes: one at a time they arrive apart, in the uneven
	// chunking together, so a text that counted them would differ.
	add(append(append([]byte(nil), multi.Bytes()...), 0x5A, 0x5A, 0x5A))
	f.Fuzz(func(t *testing.T, raw, steps1, steps2 []byte) {
		check := func(steps []byte) error {
			checked, end := 0, 0
			for _, step := range steps {
				end = min(end+int(step), len(raw))
				var err error
				if checked, err = CheckTrace(raw[:end], checked, false); err != nil {
					return err
				}
			}
			_, err := CheckTrace(raw, checked, true)
			return err
		}
		errText := func(err error) string {
			if err == nil {
				return "accepted"
			}
			return err.Error()
		}
		_, derr := DecodeTrace(raw)
		want := errText(derr)
		if got := errText(check(steps1)); got != want {
			t.Fatalf("first chunking: %s; DecodeTrace: %s", got, want)
		}
		if got := errText(check(steps2)); got != want {
			t.Fatalf("second chunking: %s; DecodeTrace: %s", got, want)
		}
	})
}

// overflowExtentBytes serializes a trace whose single record has an address
// near 2^64 and a count that wraps the extent — the crash-corpus case the
// decoders must reject rather than hand downstream as Interval{Lo > Hi}.
func overflowExtentBytes() []byte {
	var buf bytes.Buffer
	(&Trace{BlockBytes: 64, Accesses: []Access{
		{Cycle: 1, Addr: ^uint64(0) - 128, Count: 1 << 20, Kind: Read},
	}}).Write(&buf)
	return buf.Bytes()
}

// highMagicBytes serializes a valid trace and corrupts the high half of the
// 64-bit magic word — the streaming reader used to check only the low 32
// bits and accept it.
func highMagicBytes() []byte {
	var buf bytes.Buffer
	(&Trace{BlockBytes: 4, Accesses: []Access{{Cycle: 1, Addr: 0, Count: 1, Kind: Write}}}).Write(&buf)
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[4:8], 0xDEADBEEF)
	return raw
}
