package wire

import (
	"io"
	"slices"
	"sync"
)

// maxPooledFrame caps the buffers framePool keeps: a rare huge frame is
// allocated and dropped instead of pinning its memory in the pool.
const maxPooledFrame = 1 << 20

// framePool recycles the byte buffers of /v1/embed: the server's request
// reads and response encodes, the client's response reads. A buffer goes
// back only once nothing can read it any more — after the decode that
// copied out of it, or after a Write that returned without error — and an
// encode rewrites every byte of its frame, pad included, so no request's
// bytes reach another request's frame.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

func getFrame() *[]byte { return framePool.Get().(*[]byte) }

func putFrame(b *[]byte) {
	if cap(*b) <= maxPooledFrame {
		framePool.Put(b)
	}
}

// readFrame reads r to EOF into buf[:0] and returns the filled slice. size
// is the body's declared length (Content-Length, -1 when unknown); when it
// is within limit the buffer is grown to it once, up front. Reading stops
// one byte past limit, so a caller tells an over-long body from one of
// exactly limit bytes by its length.
func readFrame(buf []byte, r io.Reader, size int64, limit int) ([]byte, error) {
	buf = buf[:0]
	if size >= 0 && size <= int64(limit) {
		buf = slices.Grow(buf, int(size)+1) // +1: room for the read that reports EOF
	}
	for len(buf) <= limit {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
