package leakcheck

import (
	"context"
	"fmt"
	"io"
	"time"

	"secemb/internal/core"
	"secemb/internal/frontdoor"
	"secemb/internal/memtrace"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
	"secemb/internal/wire"
)

// WireFactory audits the network front door end to end: panel ids travel
// the real path — wire codec, h2c loopback server, serving group, traced
// linear-scan backend — and the padded response size observed by the
// client is appended to the trace as a synthetic "wire.resp" access. Trace
// equality across the panel therefore proves two things at once: the
// backend's memory accesses stay id-independent through the full network
// stack, and the on-the-wire response size (the padding-bucket policy)
// partitions only by the public batch count, never by the ids.
//
// The stack is secembd's own: frontdoor.Defaults, hold and shedding armed,
// with only the technique, shape, backend count and traced generator
// options changed. The panel batch (8) pads to bucket 8 of max-batch 64.
func WireFactory(rows, dim int, seed int64) Factory {
	return Factory{
		Name:   "wire",
		Rows:   rows,
		Secure: true,
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			cfg := frontdoor.Defaults()
			cfg.Technique, cfg.Rows, cfg.Dim = core.LinearScan.Key(), rows, dim
			cfg.Backends = 1
			cfg.Core = core.Options{Seed: seed, Tracer: tr, Threads: 1}
			st, err := frontdoor.Start(cfg, "127.0.0.1:0", nil, io.Discard)
			if err != nil {
				return nil, err
			}
			gen := st.Group.ShardBackends(0)[0].(*backends.Embedding).Generator()
			return &wireGen{Generator: gen, stack: st, tracer: tr}, nil
		},
	}
}

// wireGen routes Generate through a fresh in-process front door. It is
// single-shot, like the coalesce target: the stack is drained after the
// one panel batch so each input gets a pristine one.
type wireGen struct {
	core.Generator // the traced scan behind the front door
	stack          *frontdoor.Stack
	tracer         *memtrace.Tracer
}

// Generate submits the batch as one wire request over a loopback h2c
// connection and records the padded response size the client observed.
//
// secemb:audit wire
func (w *wireGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	defer func() { _ = w.stack.Drain(0, io.Discard) }()
	client := wire.NewClient(wire.ClientConfig{Addr: w.stack.Addr, Timeout: 30 * time.Second})
	defer client.Close()
	res, err := client.Embed(context.Background(), 0, ids)
	if err != nil {
		return nil, err
	}
	if res.Status != serving.StatusOK {
		return nil, fmt.Errorf("leakcheck: wire status %v", res.Status)
	}
	// The network-visible response size joins the trace: an id-dependent
	// padding bucket would diverge here even if the backend stayed clean.
	w.tracer.Touch("wire.resp", int64(res.BytesIn), memtrace.Write)
	return res.Rows, nil
}
