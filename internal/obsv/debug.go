package obsv

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// DebugMux builds the observability endpoints on a fresh mux, for a server
// (serve) that mounts them next to its own API routes:
//
//	/metrics — Prometheus text exposition of the registered metrics
//	/healthz — 200 "ok" while the health func returns nil, 503 otherwise
//	/varz    — free-form JSON status
//
// health and varz may be nil.
func DebugMux(m *Metrics, health func() error, varz func() map[string]any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if health != nil {
			if err := health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/varz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v map[string]any
		if varz != nil {
			v = varz()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	})
	// Profiling hooks: the full net/http/pprof surface, registered
	// explicitly (the package's init only touches http.DefaultServeMux,
	// which this mux deliberately is not).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
