package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler exposes the registry over HTTP, expvar-style, with pprof wired
// in under /debug/pprof/:
//
//	/metrics       text snapshot (the WriteText format)
//	/metrics.json  JSON snapshot
//	/debug/pprof/  Go's standard profiling endpoints
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = r.WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the handler on addr in a background goroutine and returns
// the bound listener address (useful with ":0") and the server for
// shutdown. The error is non-nil only when the listener cannot be opened.
func Serve(addr string, r *Registry) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(r)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv, nil
}
