package wire

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"secemb/internal/serving"
	"secemb/internal/tensor"
)

// ClientConfig shapes a wire client.
type ClientConfig struct {
	// Addr is the server's host:port.
	Addr string
	// Key mints connection tokens (must match the server's when it
	// requires tokens).
	Key Key
	// TokenTTL is how far ahead minted tokens expire (tokens are reminted
	// when less than half the TTL remains). 0 → 1 minute.
	TokenTTL time.Duration
	// Timeout bounds each Embed round trip. 0 → no client deadline.
	Timeout time.Duration
	// TLS, when non-nil, dials the server over TLS (ALPN h2) instead of
	// cleartext h2c; it must trust the server's certificate (see
	// SelfSignedTLS for the loopback pairing).
	TLS *tls.Config
	// MaxResponseBytes caps how much of a response Embed will buffer; a
	// longer response is an error, not an allocation — the frame header's
	// rows/dim fields are server-controlled and must not let a hostile
	// server balloon client memory. 0 → DefaultMaxResponseBytes.
	MaxResponseBytes int
}

// DefaultMaxResponseBytes bounds response reads (64 MiB — far above any
// realistic bucket×dim frame, far below harm).
const DefaultMaxResponseBytes = 64 << 20

// Client speaks the wire protocol over HTTP/2 — TLS when configured, h2c
// otherwise. Each Client owns its own Transport — and therefore its own
// TCP connection pool — so a soak harness holding N Clients holds N real
// connections. A single Client is safe for concurrent use: its streams
// multiplex onto the connection.
type Client struct {
	cfg ClientConfig
	hc  *http.Client
	url string

	mu    sync.Mutex // guards token
	token Token
}

// Result is one Embed outcome as observed on the wire.
type Result struct {
	// Status is the server's taxonomy code for the request.
	Status serving.Status
	// Shard is the replica group that served (or refused) the request.
	Shard int
	// QueueWait is the server-reported queue wait.
	QueueWait time.Duration
	// Flags echoes the response frame's flag bits (FlagAuthFailed, …).
	Flags uint8
	// Rows holds the embeddings on StatusOK, nil otherwise.
	Rows *tensor.Matrix
	// BytesOut and BytesIn are the request and (padded) response frame
	// sizes actually transferred.
	BytesOut, BytesIn int
	// RetryAfter echoes the server's in-frame backoff hint on retryable
	// statuses.
	RetryAfter time.Duration
}

// NewClient builds a client for addr. With cfg.TLS set the transport
// dials TLS and negotiates h2 via ALPN; without it, h2c with prior
// knowledge — matching the two modes of NewServer.
func NewClient(cfg ClientConfig) *Client {
	if cfg.TokenTTL <= 0 {
		cfg.TokenTTL = time.Minute
	}
	if cfg.MaxResponseBytes <= 0 {
		cfg.MaxResponseBytes = DefaultMaxResponseBytes
	}
	var protos http.Protocols
	scheme := "http://"
	tr := &http.Transport{}
	if cfg.TLS != nil {
		protos.SetHTTP2(true)
		// The transport edits its config's NextProtos in place on first use,
		// and callers (secembd's soak) hand one config to many clients.
		tr.TLSClientConfig = cfg.TLS.Clone()
		tr.TLSClientConfig.NextProtos = slices.Clone(cfg.TLS.NextProtos)
		scheme = "https://"
	} else {
		protos.SetUnencryptedHTTP2(true)
	}
	tr.Protocols = &protos
	return &Client{
		cfg: cfg,
		hc:  &http.Client{Transport: tr, Timeout: cfg.Timeout},
		url: scheme + cfg.Addr + "/v1/embed",
	}
}

// Close releases the client's pooled connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// freshToken returns the cached token, reminting once less than half the
// TTL remains.
func (c *Client) freshToken() Token {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if time.Unix(c.token.Expiry, 0).Sub(now) < c.cfg.TokenTTL/2 {
		c.token = NewToken(c.cfg.Key, now.Add(c.cfg.TokenTTL))
	}
	return c.token
}

// Embed requests embeddings for ids routed by key. A non-nil error means
// the round trip itself failed (transport error, undecodable frame);
// server-side refusals come back as a Result with a non-OK Status.
func (c *Client) Embed(ctx context.Context, key uint64, ids []uint64) (*Result, error) {
	frame, err := AppendRequest(nil, &Request{
		Op:    OpEmbed,
		Token: c.freshToken(),
		Key:   key,
		IDs:   ids,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	httpResp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	// A hostile or buggy server must not be able to balloon this read:
	// cap it before buffering, then let ParseResponse's length checks
	// bound any decode allocation by what was actually received.
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, int64(c.cfg.MaxResponseBytes)+1))
	if err != nil {
		return nil, fmt.Errorf("wire: read response: %w", err)
	}
	if len(body) > c.cfg.MaxResponseBytes {
		return nil, fmt.Errorf("%w: response exceeds %d bytes", ErrFrameSize, c.cfg.MaxResponseBytes)
	}
	resp, err := ParseResponse(body)
	if err != nil {
		return nil, fmt.Errorf("wire: HTTP %d: %w", httpResp.StatusCode, err)
	}
	return &Result{
		Status:     serving.Status(resp.Status),
		Shard:      int(resp.Shard),
		Flags:      resp.Flags,
		QueueWait:  time.Duration(resp.QueueWait) * time.Microsecond,
		Rows:       resp.Rows,
		BytesOut:   len(frame),
		BytesIn:    resp.PaddedLen,
		RetryAfter: time.Duration(resp.RetryAfterMS) * time.Millisecond,
	}, nil
}

// Health probes /healthz; it returns nil when the server is accepting.
func (c *Client) Health(ctx context.Context) error {
	u := c.url[:len(c.url)-len("/v1/embed")] + "/healthz"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("wire: healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}
