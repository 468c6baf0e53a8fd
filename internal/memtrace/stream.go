package memtrace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// DecodeBatch is the largest number of access records a Decoder yields per
// Next call. At 21 serialized / 24 in-memory bytes per record one batch
// costs at most ~180 KiB of working memory, independent of how large the
// trace is — a multi-gigabyte probe capture decodes through the same two
// fixed buffers. A trace that declares fewer records gets buffers sized
// for those.
const DecodeBatch = 4096

// Decoder incrementally decodes a serialized trace from an io.Reader. It
// applies the same strict validation as DecodeTrace — full 64-bit magic and
// block-size bounds up front (on the first Next call), per-record direction
// and address-extent checks, and rejection of data past the declared record
// count — but holds only one bounded batch in memory at a time, so decoding
// never allocates proportionally to the trace size. It and DecodeTrace
// parse the header with parseHeader and every record with decodeRecords,
// which keeps the two entry points' accepted input sets identical (pinned
// by FuzzTraceDecodeStream).
//
// A Decoder is not safe for concurrent use.
type Decoder struct {
	r io.Reader

	block    uint64
	declared uint64
	decoded  uint64
	headerOK bool
	err      error // sticky; io.EOF after a clean end

	batchCap int
	raw      []byte
	batch    []Access
}

// NewDecoder returns a decoder reading a serialized trace from r. The
// header is read and validated on the first Next call.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, batchCap: DecodeBatch}
}

// BlockBytes returns the trace's block granularity, or 0 before the header
// has been decoded.
func (d *Decoder) BlockBytes() int { return int(d.block) }

// Declared returns the header's declared record count, or 0 before the
// header has been decoded. The count is untrusted until the stream has been
// fully consumed: a forged header fails with an error from Next, never by
// over-allocating.
func (d *Decoder) Declared() uint64 { return d.declared }

// Decoded returns the number of records yielded so far.
func (d *Decoder) Decoded() uint64 { return d.decoded }

// parseHeader validates the 24-byte header and returns its block size and
// declared record count.
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

// decodeRecords decodes len(dst) records from raw, which holds exactly
// that many, into dst. first is the index of dst[0] in the trace, for
// error messages.
func decodeRecords(dst []Access, raw []byte, block, first uint64) error {
	for i := range dst {
		a, err := decodeAccess(raw[i*accessRecordBytes:][:accessRecordBytes], block)
		if err != nil {
			return fmt.Errorf("memtrace: decode: access %d: %w", first+uint64(i), err)
		}
		dst[i] = a
	}
	return nil
}

// readHeader reads and validates the 24-byte header.
func (d *Decoder) readHeader() error {
	var hdr [traceHeaderBytes]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return fmt.Errorf("memtrace: decode: header: %w", err)
	}
	block, n, err := parseHeader(hdr[:])
	if err != nil {
		return err
	}
	d.block, d.declared, d.headerOK = block, n, true
	return nil
}

// Next returns the next batch of decoded records, at most DecodeBatch of
// them. The returned slice is reused by the following Next call — callers
// that retain records across calls must copy them. After the final record
// the decoder verifies the stream holds no trailing data and returns
// io.EOF. Any other error is sticky and terminal; errors from the
// underlying reader are wrapped and recoverable with errors.As (the serve
// layer relies on this to map *http.MaxBytesError to 413).
func (d *Decoder) Next() ([]Access, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.headerOK {
		if err := d.readHeader(); err != nil {
			d.err = err
			return nil, err
		}
	}
	if d.decoded == d.declared {
		if err := d.expectEOF(); err != nil {
			d.err = err
			return nil, err
		}
		d.err = io.EOF
		return nil, io.EOF
	}
	if d.raw == nil {
		// The declared count is a claim, but the buffers it sizes never
		// exceed one full batch.
		n := min(uint64(d.batchCap), d.declared)
		d.raw = make([]byte, n*accessRecordBytes)
		d.batch = make([]Access, n)
	}
	want := min(d.declared-d.decoded, uint64(len(d.batch)))
	buf := d.raw[:want*accessRecordBytes]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = fmt.Errorf("memtrace: decode: access %d: %w (header declared %d records)", d.decoded, err, d.declared)
		return nil, d.err
	}
	batch := d.batch[:want]
	if err := decodeRecords(batch, buf, d.block, d.decoded); err != nil {
		d.err = err
		return nil, err
	}
	d.decoded += want
	return batch, nil
}

// expectEOF probes the stream for data past the declared records.
func (d *Decoder) expectEOF() error {
	var one [1]byte
	n, err := io.ReadFull(d.r, one[:])
	if n > 0 {
		return fmt.Errorf("memtrace: decode: trailing data past %d declared records", d.declared)
	}
	if err != nil && err != io.EOF {
		return fmt.Errorf("memtrace: decode: trailing probe: %w", err)
	}
	return nil
}
