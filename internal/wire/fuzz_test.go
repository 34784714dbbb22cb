package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"secemb/internal/tensor"
)

// The v1 frames, frozen as bytes: a layout change must fail here, not at a
// peer built from another commit. Both frames also seed the fuzz targets.
var (
	goldenRequest = []byte{
		0x00, 0x00, 0x00, 0x44, // length of the remainder: 68
		0x01, 0x01, // version, op (embed)
		0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, // token MAC
		0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f,
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // token expiry
		0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // routing key
		0x00, 0x02, // id count
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // ids[0] = 1
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, // ids[1] = 2^64-2
	}
	goldenRequestValue = func() *Request {
		r := &Request{Op: OpEmbed, Key: 0x1112131415161718, IDs: []uint64{1, 1<<64 - 2}}
		for i := range r.Token.MAC {
			r.Token.MAC[i] = byte(i)
		}
		r.Token.Expiry = 0x0102030405060708
		return r
	}()

	// One 2-wide row answering a count-2 request under a cap of 4: the
	// bucket is 2 rows, so the second row's 8 bytes are zero padding.
	goldenResponse = []byte{
		0x00, 0x00, 0x00, 0x1e, // length of the remainder: 30, the padded size
		0x01, 0x00, 0x03, 0x01, // version, status (ok), shard, flags
		0x00, 0x00, 0x01, 0xf4, // queue wait: 500 µs
		0x00, 0x01, 0x00, 0x02, // rows, dim
		0x00, 0x07, // retry-after: 7 ms
		0x3f, 0x80, 0x00, 0x00, 0xc0, 0x00, 0x00, 0x00, // 1.0, -2.0
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // padding
	}
	goldenResponseValue = &Response{
		Shard: 3, Flags: 1, QueueWait: 500, RetryAfterMS: 7,
		Rows:      &tensor.Matrix{Rows: 1, Cols: 2, Data: []float32{1, -2}},
		PaddedLen: 34,
	}
)

func TestGoldenFrames(t *testing.T) {
	if got, err := AppendRequest(nil, goldenRequestValue); err != nil || !bytes.Equal(got, goldenRequest) {
		t.Fatalf("request encodes to\n% x\nwant\n% x (err %v)", got, goldenRequest, err)
	}
	if got, err := ParseRequest(goldenRequest, 2); err != nil || !reflect.DeepEqual(got, goldenRequestValue) {
		t.Fatalf("request decodes to %+v, want %+v (err %v)", got, goldenRequestValue, err)
	}
	if got, err := AppendResponse(nil, goldenResponseValue, 2, 4, 2); err != nil || !bytes.Equal(got, goldenResponse) {
		t.Fatalf("response encodes to\n% x\nwant\n% x (err %v)", got, goldenResponse, err)
	}
	if got, err := ParseResponse(goldenResponse); err != nil || !reflect.DeepEqual(got, goldenResponseValue) {
		t.Fatalf("response decodes to %+v, want %+v (err %v)", got, goldenResponseValue, err)
	}
}

// FuzzParseRequest: arbitrary bytes never panic; a frame that parses holds
// at most maxIDs ids and re-encodes to the same bytes.
func FuzzParseRequest(f *testing.F) {
	f.Add(goldenRequest, 2)
	f.Add(goldenRequest, 1)
	f.Add(goldenRequest[:len(goldenRequest)-1], 0)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, buf []byte, maxIDs int) {
		r, err := ParseRequest(buf, maxIDs)
		if err != nil {
			return
		}
		if maxIDs > 0 && len(r.IDs) > maxIDs {
			t.Fatalf("%d ids parsed under a cap of %d", len(r.IDs), maxIDs)
		}
		again, err := AppendRequest(nil, r)
		if err != nil || !bytes.Equal(again, buf) {
			t.Fatalf("re-encoded to\n% x\nfrom\n% x (err %v)", again, buf, err)
		}
	})
}

// FuzzParseResponse: arbitrary bytes never panic; a frame that parses
// reports the length an observer saw, and — when it is one AppendResponse
// can produce: whole bucket rows at its dim, zero padding — re-encodes to
// the same bytes, into a fresh buffer and into a dirty one alike.
func FuzzParseResponse(f *testing.F) {
	f.Add(goldenResponse)
	f.Add(goldenResponse[:prefixLen+respHeaderLen])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		r, err := ParseResponse(buf)
		if err != nil {
			return
		}
		if r.PaddedLen != len(buf) {
			t.Fatalf("PaddedLen %d for a %d-byte frame", r.PaddedLen, len(buf))
		}
		dim := int(binary.BigEndian.Uint16(buf[prefixLen+10:]))
		payload := buf[prefixLen+respHeaderLen:]
		if dim == 0 || len(payload) == 0 || len(payload)%(4*dim) != 0 {
			return
		}
		nr := 0
		if r.Rows != nil {
			nr = r.Rows.Rows
		}
		if len(bytes.Trim(payload[4*nr*dim:], "\x00")) != 0 {
			return // padding is skipped, not interpreted
		}
		bucket := len(payload) / (4 * dim)
		again, err := AppendResponse(nil, r, bucket, bucket, dim)
		if err != nil || !bytes.Equal(again, buf) {
			t.Fatalf("re-encoded to\n% x\nfrom\n% x (err %v)", again, buf, err)
		}
		dirty := bytes.Repeat([]byte{0xff}, len(buf)+8)
		again, err = AppendResponse(dirty[:0], r, bucket, bucket, dim)
		if err != nil || !bytes.Equal(again, buf) {
			t.Fatalf("re-encoded into a dirty buffer to\n% x\nfrom\n% x (err %v)", again, buf, err)
		}
	})
}
