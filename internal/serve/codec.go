package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"cnnrev/internal/memtrace"
)

// encodeRequest serializes a validated request for the job store: a
// 4-byte little-endian length, the request's JSON, then (trace mode) the
// serialized upload verbatim, so a multi-megabyte upload is never
// base64-inflated through JSON. The frontend resolves everything
// request-shaped — including the effective MaxStructures — before
// encoding, so a worker replica with a different local configuration still
// solves under the submitting frontend's bound and the result matches the
// frontend's cache key. handleTrace builds the same bytes without copying
// the upload (uploadPayload).
func encodeRequest(req *attackRequest) ([]byte, error) {
	var raw []byte
	if up := req.Upload; up != nil {
		if len(up.Raw) == 0 {
			return nil, fmt.Errorf("serve: trace mode request without a trace")
		}
		raw = up.Raw
	}
	hb, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	payload := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(hb)+len(raw)), uint32(len(hb)))
	return append(append(payload, hb...), raw...), nil
}

// decodeRequest parses a job payload back into an attackRequest whose
// upload, in trace mode, is the payload's tail (see decodeUpload). The
// payload comes from this package's own encoder (possibly in another
// process), so errors mean version skew or corruption, not client input.
func decodeRequest(payload []byte) (*attackRequest, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("serve: job payload too short")
	}
	hlen := binary.LittleEndian.Uint32(payload[:4])
	if int(hlen) > len(payload)-4 {
		return nil, fmt.Errorf("serve: job payload header length %d exceeds payload", hlen)
	}
	var req attackRequest
	if err := json.Unmarshal(payload[4:4+hlen], &req); err != nil {
		return nil, fmt.Errorf("serve: job payload header: %w", err)
	}
	if up := req.Upload; up != nil {
		up.Raw = payload[4+hlen:]
	}
	return &req, nil
}

// decodeUpload decodes a trace-mode request's upload, once, on the worker
// that runs the job; it returns nil for a simulate request.
func decodeUpload(req *attackRequest) (*memtrace.Trace, error) {
	if req.Upload == nil {
		return nil, nil
	}
	tr, err := memtrace.DecodeTrace(req.Upload.Raw)
	if err != nil {
		return nil, fmt.Errorf("serve: job payload trace: %w", err)
	}
	return tr, nil
}

// maxUploadPresize caps the payload capacity a client's Content-Length
// claim buys before any byte arrives; past it the buffer grows with the
// bytes actually received.
const maxUploadPresize = 1 << 20

// unknownSHA256 stands in for an upload's digest until its last byte is
// read. A hex SHA-256 always has this length, so the request header's
// length is known before the body is.
var unknownSHA256 = strings.Repeat("0", 2*sha256.Size)

// uploadPayload receives a trace upload straight into its job payload: the
// body's bytes land behind room reserved for the length prefix and request
// header, which seal writes once the upload's SHA-256 is known. The
// payload is byte for byte what encodeRequest returns, and the upload
// exists once on the frontend.
type uploadPayload struct {
	buf []byte
	hdr int // reserved bytes in front of the upload
}

// newUploadPayload reserves room for req's header and for sizeHint upload
// bytes, at most maxUploadPresize. req must be final but for its upload's
// digest and bytes.
func newUploadPayload(req *attackRequest, sizeHint int64) (*uploadPayload, error) {
	req.Upload.SHA256 = unknownSHA256
	hb, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hdr := 4 + len(hb)
	return &uploadPayload{buf: make([]byte, hdr, hdr+int(min(max(sizeHint, 0), maxUploadPresize))), hdr: hdr}, nil
}

// receive reads body to its end straight into the payload's spare
// capacity, with no copy buffer, and checks the upload with
// memtrace.CheckTrace as the bytes land, so a corrupt upload fails at its
// first bad record without being read further. Bytes that arrive with a
// read error are checked before the error is returned, which keeps the
// outcome independent of how the body is chunked. A full buffer grows only
// once another byte has arrived: one that Content-Length sized exactly
// holds the whole upload, and growing it would copy every byte.
func (p *uploadPayload) receive(body io.Reader) error {
	checked := 0
	for {
		var n int
		var rerr error
		if len(p.buf) < cap(p.buf) {
			n, rerr = body.Read(p.buf[len(p.buf):cap(p.buf)])
			p.buf = p.buf[:len(p.buf)+n]
		} else {
			var probe [1]byte
			n, rerr = body.Read(probe[:])
			p.buf = append(p.buf, probe[:n]...)
		}
		var err error
		if checked, err = memtrace.CheckTrace(p.buf[p.hdr:], checked, rerr == io.EOF); err != nil {
			return err
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return fmt.Errorf("serve: read trace upload: %w", rerr)
		}
	}
}

// seal completes req with the upload's hex SHA-256 and bytes, writes its
// header into the reserved room and returns the job payload.
func (p *uploadPayload) seal(req *attackRequest) ([]byte, error) {
	sum := sha256.Sum256(p.buf[p.hdr:])
	req.Upload.SHA256, req.Upload.Raw = hex.EncodeToString(sum[:]), p.buf[p.hdr:]
	hb, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if 4+len(hb) != p.hdr {
		return nil, fmt.Errorf("serve: request header is %d bytes, %d reserved", 4+len(hb), p.hdr)
	}
	binary.LittleEndian.PutUint32(p.buf, uint32(len(hb)))
	copy(p.buf[4:], hb)
	return p.buf, nil
}

// resultEnvelope is a finished job's HTTP outcome as the job store carries
// it: the status, and either an error text or the marshaled response body
// a frontend relays verbatim. Cacheable marks complete 200s, the only
// outcomes the content-addressed result cache may store; such an envelope
// also carries Cached, the body the worker marshaled a second time with
// "cached": true, so no frontend ever re-parses a response.
type resultEnvelope struct {
	Status    int
	Cacheable bool
	ErrMsg    string
	Body      []byte
	Cached    []byte
}

// The envelope's wire form is a binary frame: a version byte, a flag byte
// (bit 0: cacheable), the status as a varint, then the error text, the
// body and, for a cacheable envelope only, the cached body, each behind a
// uvarint length. Frontend and worker must run the same build.
const (
	envelopeVersion   = 0xE1
	envelopeCacheable = 1 << 0
)

var errEnvelopeTruncated = errors.New("serve: result envelope: truncated frame")

func encodeEnvelope(env *resultEnvelope) []byte {
	var flags byte
	size := 2 + 4*binary.MaxVarintLen64 + len(env.ErrMsg) + len(env.Body)
	if env.Cacheable {
		flags |= envelopeCacheable
		size += len(env.Cached)
	}
	b := append(make([]byte, 0, size), envelopeVersion, flags)
	b = binary.AppendVarint(b, int64(env.Status))
	b = appendField(b, []byte(env.ErrMsg))
	b = appendField(b, env.Body)
	if env.Cacheable {
		b = appendField(b, env.Cached)
	}
	return b
}

// decodeEnvelope parses a frame. The byte fields alias data.
func decodeEnvelope(data []byte) (*resultEnvelope, error) {
	if len(data) < 2 {
		return nil, errEnvelopeTruncated
	}
	if data[0] != envelopeVersion {
		return nil, fmt.Errorf("serve: result envelope: unknown version %#x", data[0])
	}
	flags := data[1]
	if flags&^envelopeCacheable != 0 {
		return nil, fmt.Errorf("serve: result envelope: unknown flags %#x", flags)
	}
	status, n := binary.Varint(data[2:])
	if n <= 0 {
		return nil, errEnvelopeTruncated
	}
	rest := data[2+n:]
	env := &resultEnvelope{Status: int(status), Cacheable: flags&envelopeCacheable != 0}
	var errMsg []byte
	var err error
	if errMsg, rest, err = readField(rest); err != nil {
		return nil, err
	}
	env.ErrMsg = string(errMsg)
	if env.Body, rest, err = readField(rest); err != nil {
		return nil, err
	}
	if env.Cacheable {
		if env.Cached, rest, err = readField(rest); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("serve: result envelope: %d trailing bytes", len(rest))
	}
	return env, nil
}

func appendField(b, field []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(field))), field...)
}

// readField splits a length-prefixed field off data. An empty field reads
// as nil.
func readField(data []byte) (field, rest []byte, err error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return nil, nil, errEnvelopeTruncated
	}
	data = data[k:]
	if n == 0 {
		return nil, data, nil
	}
	return data[:n:n], data[n:], nil
}
