// Package debughttp is the daemons' opt-in profiling listener: pprof
// endpoints and Go runtime metrics on a separate address (-pprof-addr),
// off by default. Keeping it off the API listener means operators can
// firewall profiling away from the control-plane surface, and an
// accidental heavy profile never competes with API traffic for the same
// listener queue.
package debughttp

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"heracles/internal/expo"
)

// Handler serves the debug surface: the standard pprof index and
// profiles under /debug/pprof/, and Go runtime metrics in Prometheus
// text format at /metrics.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		runtimeFamilies().Respond(w)
	})
	return mux
}

// runtimeFamilies renders the Go runtime's scalar metrics as Prometheus
// families: every runtime/metrics counter and gauge, its description as
// HELP, TYPE counter for a cumulative one (histogram kinds are skipped —
// the sampled profiles under /debug/pprof/ cover those distributions),
// plus the live goroutine count.
func runtimeFamilies() *expo.Writer {
	var descs []rtmetrics.Description
	for _, d := range rtmetrics.All() {
		if d.Kind == rtmetrics.KindUint64 || d.Kind == rtmetrics.KindFloat64 {
			descs = append(descs, d)
		}
	}
	samples := make([]rtmetrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	rtmetrics.Read(samples)
	w := expo.NewWriter(32 << 10)
	for i, s := range samples {
		typ, name := "gauge", promName(s.Name)
		if descs[i].Cumulative {
			typ = "counter"
		}
		w.Family(name, typ, descs[i].Description)
		if s.Value.Kind() == rtmetrics.KindUint64 {
			w.Int(name, int64(s.Value.Uint64()))
		} else {
			w.Float(name, s.Value.Float64())
		}
	}
	w.ScalarInt("go_goroutines", "gauge", "Number of goroutines that currently exist.", int64(runtime.NumGoroutine()))
	return w
}

// promName flattens a runtime/metrics name ("/gc/heap/allocs:bytes")
// into a Prometheus-legal one ("go_gc_heap_allocs_bytes").
func promName(name string) string {
	var b strings.Builder
	b.WriteString("go")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Server is a running debug listener.
type Server struct {
	// Addr is the bound address, useful when the requested port was 0.
	Addr string

	srv *http.Server
}

// Close shuts the listener down immediately (profiles in flight are
// severed; the debug surface has no clients worth draining for).
func (s *Server) Close() error { return s.srv.Close() }

// Start binds addr and serves the debug surface on it until Close.
func Start(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debughttp: %w", err)
	}
	srv := &http.Server{
		Handler:           Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(ln)
	return &Server{Addr: ln.Addr().String(), srv: srv}, nil
}
