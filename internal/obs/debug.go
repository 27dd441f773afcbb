package obs

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugMux builds the daemon debug surface over a registry: /debug/vars
// serves the metrics snapshot as JSON (expvar-style), and /debug/pprof/
// exposes the standard runtime profiles. The handlers are registered
// explicitly on a private mux — importing this package does not touch
// http.DefaultServeMux. Daemons mount it behind an operator-only
// address (rdapd --debug-addr, whoisd/whoissurvey --metrics-addr).
func DebugMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", r)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeMetrics serves reg as JSON on addr in the background and logs
// where — the -metrics-addr listener of whoisd and whoissurvey. An empty
// addr serves nothing. The returned stop closes the listener.
func ServeMetrics(addr string, reg *Registry) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: reg}
	go func() { _ = srv.Serve(ln) }()
	log.Printf("metrics at http://%s/", ln.Addr())
	return func() { srv.Close() }, nil
}

// WriteFinalStats logs "final stats:" and writes reg's snapshot to w —
// the end-of-run accounting the batch daemons print at exit.
func WriteFinalStats(w io.Writer, reg *Registry) {
	log.Printf("final stats:")
	if err := reg.WriteJSON(w); err != nil {
		log.Printf("stats dump failed: %v", err)
	}
	fmt.Fprintln(w)
}
