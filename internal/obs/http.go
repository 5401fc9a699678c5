package obs

// The operator-facing HTTP surface. This file is the observability
// layer's one sanctioned wall-clock consumer (uptime is inherently a
// wall-time concept); every such use carries an //hbvet:allow detwall
// directive. Nothing here runs inside a visit — the virtual timeline
// never sees this code.

import (
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// NewDebugMux builds the expvar-style debug surface for a crawl:
//
//	/debug/vars     merged telemetry counters as flat JSON
//	/debug/pprof/*  the standard runtime profiles
//
// reg may be nil (counters read as zero). The mux is what `hbcrawl
// -obs :6060` serves.
func NewDebugMux(reg *Registry) *http.ServeMux {
	// Uptime anchor for /debug/vars; operator wall time, not simulation time.
	//hbvet:allow detwall operator-facing uptime is wall-clock by definition
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		buf := make([]byte, 0, 512)
		buf = append(buf, `{"uptime_sec":`...)
		//hbvet:allow detwall operator-facing uptime is wall-clock by definition
		buf = strconv.AppendFloat(buf, time.Since(start).Seconds(), 'f', 1, 64)
		buf = append(buf, `,"counters":`...)
		buf = reg.Totals().AppendJSON(buf)
		buf = append(buf, "}\n"...)
		w.Write(buf)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds the debug surface on addr and serves it in the
// background. Returns the server (Close to stop) and the bound address
// (useful with ":0"). The listener error surfaces immediately;
// per-connection errors are the server's business.
func Serve(addr string, reg *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: NewDebugMux(reg)}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
