// Package wire is the network front door's binary protocol: a
// length-prefixed request codec, HMAC connection tokens, and fixed-bucket
// response padding, served over HTTP/2 by Server and consumed by Client —
// TLS (ALPN h2) when ServerConfig.TLS is set, cleartext h2c otherwise.
//
// Security: the response a client observes on the network — its size and
// its framing — must not depend on the embedded ids. Every response is
// padded up to a bucket determined solely by the request's id *count*,
// which is public in the threat model (§V-B: batch sizes are public; the
// ids are not), and error responses pad to the same bucket as successes,
// answer the same HTTP status (200), and carry the same headers, so the
// outcome is invisible outside the frame body too. The full request path
// is audited dynamically by the "wire" target in the leakcheck roster.
//
// Scope: padding hides ids from an observer who sees only ciphertext
// sizes and timing. Request frames carry the ids themselves, so over
// cleartext h2c an on-path observer reads them (and the bearer token)
// directly — deploy h2c only inside an encrypting tunnel or service mesh,
// or set ServerConfig.TLS/ClientConfig.TLS to terminate TLS here.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"secemb/internal/tensor"
)

// Version is the protocol version byte; a frame with any other version is
// rejected before its body is interpreted.
const Version = 1

// Op codes. OpEmbed is the only v1 operation: generate embeddings for a
// batch of ids.
const (
	OpEmbed uint8 = 1
)

// Frame size constants. The request header is everything before the ids;
// the response header is everything before the row data.
const (
	// reqHeaderLen: version(1) + op(1) + mac(32) + expiry(8) + key(8) +
	// count(2).
	reqHeaderLen = 1 + 1 + macLen + 8 + 8 + 2
	// respHeaderLen: version(1) + status(1) + shard(1) + flags(1) +
	// queue-wait µs(4) + rows(2) + dim(2) + retry-after ms(2).
	respHeaderLen = 1 + 1 + 1 + 1 + 4 + 2 + 2 + 2
	// prefixLen is the u32 length prefix on both frame kinds.
	prefixLen = 4
)

// MaxBatch is the protocol's hard cap on ids per request (the count field
// is a u16; servers typically configure a much lower public cap).
const MaxBatch = math.MaxUint16

// Codec errors.
var (
	ErrBadFrame   = errors.New("wire: malformed frame")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrFrameSize  = errors.New("wire: frame exceeds size limit")
)

// Request is one decoded embed request.
type Request struct {
	Op    uint8
	Token Token  // connection token (MAC + expiry), verified by the server
	Key   uint64 // routing key (shard pinning), public
	IDs   []uint64
}

// AppendRequest encodes r onto dst and returns the extended slice. The
// layout is:
//
//	u32  length of the remainder
//	u8   version
//	u8   op
//	[32] token MAC
//	u64  token expiry (unix seconds)
//	u64  routing key
//	u16  id count
//	u64× ids
//
// All integers are big-endian.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	if len(r.IDs) == 0 || len(r.IDs) > MaxBatch {
		return dst, fmt.Errorf("%w: %d ids (want 1..%d)", ErrBadFrame, len(r.IDs), MaxBatch)
	}
	body := reqHeaderLen + 8*len(r.IDs)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, Version, r.Op)
	dst = append(dst, r.Token.MAC[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Token.Expiry))
	dst = binary.BigEndian.AppendUint64(dst, r.Key)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.IDs)))
	for _, id := range r.IDs {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return dst, nil
}

// ParseRequest decodes one length-prefixed request frame from buf. maxIDs
// is the server's public per-request id cap (0 → protocol max); a count
// above it is rejected before the ids are read.
func ParseRequest(buf []byte, maxIDs int) (*Request, error) {
	if maxIDs <= 0 || maxIDs > MaxBatch {
		maxIDs = MaxBatch
	}
	if len(buf) < prefixLen+reqHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(buf))
	}
	body := int(binary.BigEndian.Uint32(buf))
	if body != len(buf)-prefixLen {
		return nil, fmt.Errorf("%w: length prefix %d for %d body bytes", ErrBadFrame, body, len(buf)-prefixLen)
	}
	p := buf[prefixLen:]
	if p[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, p[0])
	}
	r := &Request{Op: p[1]}
	copy(r.Token.MAC[:], p[2:2+macLen])
	r.Token.Expiry = int64(binary.BigEndian.Uint64(p[2+macLen:]))
	r.Key = binary.BigEndian.Uint64(p[2+macLen+8:])
	count := int(binary.BigEndian.Uint16(p[2+macLen+16:]))
	if count == 0 || count > maxIDs {
		return nil, fmt.Errorf("%w: %d ids (cap %d)", ErrBadFrame, count, maxIDs)
	}
	if len(p) != reqHeaderLen+8*count {
		return nil, fmt.Errorf("%w: %d bytes for %d ids", ErrBadFrame, len(p), count)
	}
	r.IDs = make([]uint64, count)
	for i := range r.IDs {
		r.IDs[i] = binary.BigEndian.Uint64(p[reqHeaderLen+8*i:])
	}
	return r, nil
}

// Response is one decoded embed response (and, on the encode side, the
// header AppendResponse serializes).
type Response struct {
	Status    uint8 // serving.Status byte
	Shard     uint8
	Flags     uint8
	QueueWait uint32 // microseconds, saturating
	// RetryAfterMS is the server's backoff hint for retryable statuses,
	// milliseconds (0 → none). It rides inside the padded frame — never a
	// header — so its presence cannot distinguish outcomes on the wire.
	RetryAfterMS uint16
	Rows         *tensor.Matrix
	// PaddedLen is the on-the-wire frame length including prefix and
	// padding — what a network observer sees. Decode-only.
	PaddedLen int
}

// BucketRows rounds the (public) request id count up to its padding
// bucket: the next power of two, clamped to the server's public cap. Every
// response to a count-n request — success or error — occupies the bucket-n
// frame size, so observed response sizes partition only by the public
// count, never by ids or outcome.
func BucketRows(count, capRows int) int {
	if capRows < 1 {
		capRows = MaxBatch
	}
	if count < 1 {
		count = 1
	}
	if count > capRows {
		count = capRows
	}
	b := 1 << bits.Len(uint(count-1))
	if b > capRows {
		b = capRows
	}
	return b
}

// FrameLen is the total on-the-wire response size (prefix included) for a
// request whose count buckets to bucketRows at embedding dimension dim.
func FrameLen(bucketRows, dim int) int {
	return prefixLen + respHeaderLen + 4*bucketRows*dim
}

// AppendResponse encodes r onto dst as one response frame, padded with
// zeros to the bucket for (count, capRows) at dimension dim. r.Rows may be
// nil (error responses); when non-nil its row data is serialized as f32
// big-endian. r.PaddedLen is ignored. The layout is:
//
//	u32  length of the remainder (always the padded size)
//	u8   version
//	u8   status (serving.Status byte)
//	u8   shard
//	u8   flags
//	u32  queue wait, microseconds (saturating)
//	u16  rows
//	u16  dim
//	u16  retry-after hint, milliseconds
//	f32× row data
//	0×   zero padding up to the bucket size
func AppendResponse(dst []byte, r *Response, count, capRows, dim int) ([]byte, error) {
	bucket := BucketRows(count, capRows)
	total := FrameLen(bucket, dim)
	nr := 0
	if r.Rows != nil {
		nr = r.Rows.Rows
		if r.Rows.Cols != dim {
			return dst, fmt.Errorf("%w: %d-col rows for dim %d", ErrBadFrame, r.Rows.Cols, dim)
		}
		if nr > bucket {
			return dst, fmt.Errorf("%w: %d rows exceed bucket %d", ErrBadFrame, nr, bucket)
		}
	}
	// One growth to the frame's size, then plain appends into it: encoding
	// into a warm buffer allocates nothing. dst is often a pooled buffer
	// that an earlier, larger frame left dirty, so the pad is appended as
	// zeros, never left to whatever the capacity held.
	dst = slices.Grow(dst, total)
	dst = binary.BigEndian.AppendUint32(dst, uint32(total-prefixLen))
	dst = append(dst, Version, r.Status, r.Shard, r.Flags)
	dst = binary.BigEndian.AppendUint32(dst, r.QueueWait)
	dst = binary.BigEndian.AppendUint16(dst, uint16(nr))
	dst = binary.BigEndian.AppendUint16(dst, uint16(dim))
	dst = binary.BigEndian.AppendUint16(dst, r.RetryAfterMS)
	if r.Rows != nil {
		for _, v := range r.Rows.Data[:nr*dim] {
			dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	pad := total - prefixLen - respHeaderLen - 4*nr*dim
	dst = append(dst, make([]byte, pad)...)
	return dst, nil
}

// ParseResponse decodes one length-prefixed response frame.
func ParseResponse(buf []byte) (*Response, error) {
	if len(buf) < prefixLen+respHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(buf))
	}
	body := int(binary.BigEndian.Uint32(buf))
	if body != len(buf)-prefixLen {
		return nil, fmt.Errorf("%w: length prefix %d for %d body bytes", ErrBadFrame, body, len(buf)-prefixLen)
	}
	p := buf[prefixLen:]
	if p[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, p[0])
	}
	r := &Response{
		Status:       p[1],
		Shard:        p[2],
		Flags:        p[3],
		QueueWait:    binary.BigEndian.Uint32(p[4:]),
		RetryAfterMS: binary.BigEndian.Uint16(p[12:]),
		PaddedLen:    len(buf),
	}
	nr := int(binary.BigEndian.Uint16(p[8:]))
	dim := int(binary.BigEndian.Uint16(p[10:]))
	if nr > 0 {
		if len(p) < respHeaderLen+4*nr*dim {
			return nil, fmt.Errorf("%w: %d bytes for %d×%d rows", ErrBadFrame, len(p), nr, dim)
		}
		r.Rows = tensor.New(nr, dim)
		data := r.Rows.Data
		in := p[respHeaderLen : respHeaderLen+4*len(data)] // bounds-checked once, before the loop
		for i := range data {
			data[i] = math.Float32frombits(binary.BigEndian.Uint32(in[4*i:]))
		}
	}
	return r, nil
}
