package wire

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"secemb/internal/obs"
	"secemb/internal/serving"
	"secemb/internal/tensor"
)

// Flag bits in the response header.
const (
	// FlagAuthFailed marks a request rejected for a bad or expired token.
	FlagAuthFailed uint8 = 1 << 0
	// FlagDraining marks a rejection issued while the server drains.
	FlagDraining uint8 = 1 << 1
)

// ServerConfig shapes the front door.
type ServerConfig struct {
	// Group is the serving stack requests dispatch into.
	Group *serving.Group
	// Dim is the embedding dimension every response frame carries.
	Dim int
	// MaxBatch is the public per-request id cap; it also sets the largest
	// padding bucket. 0 → DefaultMaxBatch.
	MaxBatch int
	// Key verifies connection tokens when RequireToken is set.
	Key Key
	// RequireToken rejects requests whose token fails Verify.
	RequireToken bool
	// TLS, when non-nil, terminates TLS on the listener (ALPN h2 +
	// http/1.1; see LoadServerTLS / SelfSignedTLS). When nil the server
	// speaks cleartext h2c and MUST sit behind an encrypting tunnel or
	// mesh — request frames carry the secret ids and the bearer token in
	// the clear, so outside such a tunnel an on-path observer reads the
	// very secrets the response padding protects, and can replay the
	// token until it expires.
	TLS *tls.Config
	// ConnStreams caps concurrently-served requests per client connection
	// (per-connection backpressure: excess streams are answered 429
	// immediately instead of queueing server-side). 0 → DefaultConnStreams.
	ConnStreams int
	// Timeout bounds each request's time in the serving stack (queue wait
	// included). 0 → no server-imposed deadline.
	Timeout time.Duration
	// Reg receives the wire metrics and is exposed on the same mux
	// (/metrics, /metrics.json, /debug/pprof/). nil → metrics
	// endpoints disabled, counters no-ops.
	Reg *obs.Registry
}

// Defaults for ServerConfig zero values.
const (
	DefaultMaxBatch    = 256
	DefaultConnStreams = 64
)

// DefaultRetryAfter is the backoff hint a retryable (overloaded or
// unavailable) outcome carries inside its padded frame.
const DefaultRetryAfter = 50 * time.Millisecond

// Server is the HTTP/2 front door (TLS or h2c): it terminates the binary
// protocol and dispatches into a serving.Group. One Server owns its http.Server; Close
// (or Shutdown) both stops accepting and marks the instance draining so
// in-flight requests finish while new ones are refused with 503.
type Server struct {
	cfg      ServerConfig
	srv      *http.Server
	draining atomic.Bool

	mRequests *obs.Counter
	mRejected map[string]*obs.Counter // by reason: overload, draining, auth, malformed
	mBytesIn  *obs.Counter
	mBytesOut *obs.Counter
	mLatency  *obs.Histogram
}

// connStreams is the per-connection stream semaphore, attached to every
// accepted connection through ConnContext.
type connStreams struct{ sem chan struct{} }

type connKeyType struct{}

var connKey connKeyType

// NewServer builds the front door. With cfg.TLS set the server terminates
// TLS and negotiates HTTP/2 via ALPN; without it the server speaks
// HTTP/1.1 and cleartext HTTP/2 (h2c) on the same port — see
// ServerConfig.TLS for the tunnel requirement that mode carries. Either
// way, soak-scale clients multiplex thousands of logical connections onto
// a few sockets — or one socket each, for per-connection backpressure
// testing.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Group == nil {
		panic("wire: ServerConfig.Group is required")
	}
	if cfg.Dim < 1 {
		panic("wire: ServerConfig.Dim is required")
	}
	if cfg.Dim > math.MaxUint16 {
		// The response header's dim field is a u16; a wider dim would
		// truncate and every response would decode as the wrong shape.
		panic("wire: ServerConfig.Dim " + strconv.Itoa(cfg.Dim) + " exceeds the wire dim field's cap of 65535")
	}
	if n := cfg.Group.Shards(); n > 256 {
		// The response frame's shard field is one byte; silently truncating
		// indices ≥256 would misattribute shards on the wire.
		panic("wire: group has " + strconv.Itoa(n) + " shards; the wire shard field caps at 256")
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.ConnStreams < 1 {
		cfg.ConnStreams = DefaultConnStreams
	}
	s := &Server{cfg: cfg}
	if cfg.Reg != nil {
		s.mRequests = cfg.Reg.Counter("wire_requests_total")
		s.mRejected = map[string]*obs.Counter{
			"overload":  cfg.Reg.Counter("wire_rejected_total", "reason", "overload"),
			"draining":  cfg.Reg.Counter("wire_rejected_total", "reason", "draining"),
			"auth":      cfg.Reg.Counter("wire_rejected_total", "reason", "auth"),
			"malformed": cfg.Reg.Counter("wire_rejected_total", "reason", "malformed"),
		}
		s.mBytesIn = cfg.Reg.Counter("wire_bytes_in_total")
		s.mBytesOut = cfg.Reg.Counter("wire_bytes_out_total")
		s.mLatency = cfg.Reg.Histogram("wire_request_ns")
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/embed", s.handleEmbed)
	mux.HandleFunc("/healthz", s.handleHealth)
	if cfg.Reg != nil {
		mux.Handle("/", obs.Handler(cfg.Reg))
	}

	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetHTTP2(true)
	protos.SetUnencryptedHTTP2(cfg.TLS == nil)
	s.srv = &http.Server{
		Handler:   mux,
		Protocols: &protos,
		ConnContext: func(ctx context.Context, c net.Conn) context.Context {
			return context.WithValue(ctx, connKey, &connStreams{
				sem: make(chan struct{}, cfg.ConnStreams),
			})
		},
	}
	return s
}

// Serve accepts connections on ln until Shutdown or Close, wrapping ln
// with TLS when the server was configured with a TLS config.
func (s *Server) Serve(ln net.Listener) error {
	if s.cfg.TLS != nil {
		ln = tls.NewListener(ln, serverTLS(s.cfg.TLS))
	}
	return s.srv.Serve(ln)
}

// Listen binds addr and serves in a background goroutine, returning the
// bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = s.Serve(ln) }()
	return ln.Addr().String(), nil
}

// StartDrain begins a graceful drain without closing the listener: from
// this point /healthz and new embed requests answer 503 (load balancers
// stop routing here) while in-flight requests run to completion. Callers
// that want a drain grace period call StartDrain, wait, then Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Shutdown gracefully drains: new requests (and health checks) are refused
// with 503 immediately, in-flight requests run to completion, and the
// listener closes once idle or ctx expires. The serving.Group is NOT
// closed — that is the caller's second drain stage, after the front door
// stops feeding it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.StartDrain()
	return s.srv.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		// The header has no sub-second form: DefaultRetryAfter rounds up.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// maxRequestLen bounds request reads: the exact frame size for the
// configured public batch cap.
func (s *Server) maxRequestLen() int {
	return prefixLen + reqHeaderLen + 8*s.cfg.MaxBatch
}

// handleEmbed is the v1 embed endpoint. Every outcome — success, shed,
// draining, auth failure, malformed count — answers HTTP 200 with an
// identical header set and a response frame padded to the bucket of the
// request's public id count: the outcome lives only in the frame's status
// byte, so neither the status line, the headers, nor the response size
// distinguishes outcomes or ids on the wire.
func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mRequests.Inc()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}

	// Parse before any outcome decision: every rejection of a parseable
	// request — draining, backpressure, auth — pads to the bucket of the
	// request's real count, so no outcome shows up as a size change.
	// The body is read into a pooled buffer, sized once by Content-Length;
	// ParseRequest copies out everything it keeps.
	bp := getFrame()
	defer putFrame(bp)
	body, err := readFrame(*bp, r.Body, r.ContentLength, s.maxRequestLen())
	*bp = body
	if err != nil {
		s.reject(w, "malformed", serving.StatusInvalidArgument, 0, 1)
		return
	}
	s.mBytesIn.Add(int64(len(body)))
	if len(body) > s.maxRequestLen() {
		s.reject(w, "malformed", serving.StatusInvalidArgument, 0, s.cfg.MaxBatch)
		return
	}
	req, err := ParseRequest(body, s.cfg.MaxBatch)
	if err != nil || req.Op != OpEmbed {
		s.reject(w, "malformed", serving.StatusInvalidArgument, 0, 1)
		return
	}
	count := len(req.IDs)
	if s.draining.Load() {
		s.reject(w, "draining", serving.StatusUnavailable, FlagDraining, count)
		return
	}
	if s.cfg.RequireToken && !req.Token.Verify(s.cfg.Key, time.Now()) {
		s.reject(w, "auth", serving.StatusInvalidArgument, FlagAuthFailed, count)
		return
	}

	// Per-connection backpressure: each connection gets a fixed stream
	// budget; a connection that overruns it sheds locally without touching
	// the shared serving queues.
	if cs, ok := r.Context().Value(connKey).(*connStreams); ok {
		select {
		case cs.sem <- struct{}{}:
			defer func() { <-cs.sem }()
		default:
			s.reject(w, "overload", serving.StatusOverloaded, 0, count)
			return
		}
	}

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	resp := s.cfg.Group.Do(ctx, req.Key, req.IDs)
	st := resp.Status()
	var rows *tensor.Matrix
	if st == serving.StatusOK {
		var ok bool
		if rows, ok = resp.Value.(*tensor.Matrix); !ok {
			st = serving.StatusInternal
		}
	}
	s.writeFrame(w, st, uint8(resp.Shard), 0, saturateUS(resp.QueueWait), rows, count)
	s.mLatency.ObserveDuration(time.Since(start))
}

// reject answers with an error frame (padded like any response for the
// given count) and the matching HTTP status.
func (s *Server) reject(w http.ResponseWriter, reason string, st serving.Status, flags uint8, count int) {
	if c := s.mRejected[reason]; c != nil {
		c.Inc()
	}
	s.writeFrame(w, st, 0, flags, 0, nil, count)
}

// writeFrame answers with a padded frame. The HTTP layer is deliberately
// outcome-invariant: always status 200, always the same headers — under
// h2c the plaintext status line is constant, and under TLS the HEADERS
// frame size is too. The serving status, and the retry backoff hint for
// retryable outcomes, travel only inside the padded body.
func (s *Server) writeFrame(w http.ResponseWriter, st serving.Status, shard, flags uint8, waitUS uint32, rows *tensor.Matrix, count int) {
	hdr := &Response{
		Status:    uint8(st),
		Shard:     shard,
		Flags:     flags,
		QueueWait: waitUS,
		Rows:      rows,
	}
	if st.Retryable() {
		hdr.RetryAfterMS = uint16(DefaultRetryAfter / time.Millisecond)
	}
	bp := getFrame()
	frame, err := AppendResponse((*bp)[:0], hdr, count, s.cfg.MaxBatch, s.cfg.Dim)
	if err != nil {
		// Unreachable without a programming error (dim/bucket mismatch);
		// answer a constant-size internal frame rather than a variable one.
		hdr.Status, hdr.Rows = uint8(serving.StatusInternal), nil
		frame, _ = AppendResponse((*bp)[:0], hdr, count, s.cfg.MaxBatch, s.cfg.Dim)
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	n, err := w.Write(frame)
	s.mBytesOut.Add(int64(n))
	if err == nil {
		// A Write that failed may return while the connection's writer
		// still reads the frame (an HTTP/2 stream reset mid-write), so only
		// a completed one gives the buffer back.
		*bp = frame
		putFrame(bp)
	}
}

func saturateUS(d time.Duration) uint32 {
	us := d.Microseconds()
	if us < 0 {
		return 0
	}
	if us > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(us)
}

// DrainAll is the complete two-stage shutdown: drain the front door (new
// requests refused, in-flight finish), then close the serving group
// (queued requests still served — serving.Group.Close is itself a
// graceful drain). Safe to call more than once.
func (s *Server) DrainAll(ctx context.Context) error {
	err := s.Shutdown(ctx)
	s.cfg.Group.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
