package leakcheck

import (
	"context"
	"fmt"
	"time"

	"secemb/internal/core"
	"secemb/internal/memtrace"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
	"secemb/internal/wire"
)

// wireMaxBatch is the front door's public id cap in the audit stack; the
// panel batch (8) buckets to 8, so every response is one fixed frame size.
const wireMaxBatch = 16

// WireFactory audits the network front door end to end: panel ids travel
// the real path — wire codec, h2c loopback server, serving group, traced
// linear-scan backend — and the padded response size observed by the
// client is appended to the trace as a synthetic "wire.resp" access. Trace
// equality across the panel therefore proves two things at once: the
// backend's memory accesses stay id-independent through the full network
// stack, and the on-the-wire response size (the padding-bucket policy)
// partitions only by the public batch count, never by the ids.
func WireFactory(rows, dim int, seed int64) Factory {
	return Factory{
		Name:   "wire",
		Rows:   rows,
		Secure: true,
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			gen, err := core.New(core.LinearScan, rows, dim, core.Options{Seed: seed, Tracer: tr, Threads: 1})
			if err != nil {
				return nil, err
			}
			return &wireGen{Generator: gen, tracer: tr}, nil
		},
	}
}

// wireGen routes Generate through a fresh in-process front door. It is
// single-shot, like the coalesce target: the server and group are torn
// down after the one panel batch so each input gets a pristine stack.
type wireGen struct {
	core.Generator // the traced scan behind the front door
	tracer         *memtrace.Tracer
}

// Generate submits the batch as one wire request over a loopback h2c
// connection and records the padded response size the client observed.
//
// secemb:audit wire
func (w *wireGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	group := serving.NewGroup(
		[]serving.Backend{backends.NewEmbedding(w.Generator, wireMaxBatch)},
		serving.GroupConfig{QueueDepth: 16},
	)
	srv := wire.NewServer(wire.ServerConfig{
		Group:    group,
		Dim:      w.Dim(),
		MaxBatch: wireMaxBatch,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		group.Close()
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.DrainAll(ctx)
	}()

	client := wire.NewClient(wire.ClientConfig{Addr: addr, Timeout: 30 * time.Second})
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
