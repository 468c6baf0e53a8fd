package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"cnnrev/internal/memtrace"
)

// encodeRequest serializes a validated request for the job store: a
// 4-byte little-endian length, the request's JSON, then (trace mode) the
// raw serialized trace, so a multi-megabyte upload is never
// base64-inflated through JSON. The frontend resolves everything
// request-shaped — including the effective MaxStructures — before
// encoding, so a worker replica with a different local configuration still
// solves under the submitting frontend's bound and the result matches the
// frontend's cache key.
func encodeRequest(req *attackRequest) ([]byte, error) {
	hb, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(binary.LittleEndian.AppendUint32(nil, uint32(len(hb))))
	buf.Write(hb)
	if up := req.Upload; up != nil {
		if up.Trace == nil {
			return nil, fmt.Errorf("serve: trace mode request without a trace")
		}
		if err := up.Trace.Write(buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodeRequest parses a job payload back into an attackRequest. The
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
		tr, err := memtrace.DecodeTrace(payload[4+hlen:])
		if err != nil {
			return nil, fmt.Errorf("serve: job payload trace: %w", err)
		}
		up.Trace = tr
	}
	return &req, nil
}

// resultEnvelope is the job-store wire form of a finished job's HTTP
// outcome: the status and pre-marshaled response body a frontend should
// relay. Cacheable marks complete 200s — the only outcomes the
// content-addressed result cache may store.
type resultEnvelope struct {
	Status    int             `json:"status"`
	Body      json.RawMessage `json:"body,omitempty"`
	ErrMsg    string          `json:"error,omitempty"`
	Cacheable bool            `json:"cacheable,omitempty"`
}

func encodeEnvelope(env *resultEnvelope) []byte {
	b, err := json.Marshal(env)
	if err != nil {
		// The envelope is built from marshalable fields only; failure here is
		// a programming error, but a failed job beats a crashed worker.
		b, _ = json.Marshal(&resultEnvelope{Status: 500, ErrMsg: "result encoding failed"})
	}
	return b
}

func decodeEnvelope(data []byte) (*resultEnvelope, error) {
	var env resultEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("serve: result envelope: %w", err)
	}
	return &env, nil
}
