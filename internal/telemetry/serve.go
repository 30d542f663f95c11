package telemetry

import (
	"context"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"time"
)

// DebugServer is the live-ops HTTP endpoint of a run: /metrics (Prometheus
// text exposition of a Registry) and /debug/pprof/* (runtime profiles). It
// binds eagerly in Serve — so a bad address fails the run up front — and
// serves until Shutdown.
type DebugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// DebugMux returns the standard debug mux over a registry: /metrics
// (Prometheus text exposition) and /debug/pprof/*.
// Services that add their own endpoints (cmd/dedcd) build on this mux and
// serve it with ServeMux.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteProm(w)
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// Serve starts a debug server on addr (host:port; an explicit port 0 picks a
// free one — read it back with Addr). The registry backs /metrics; pprof
// exposes whatever the process is doing.
func Serve(addr string, reg *Registry) (*DebugServer, error) {
	return ServeMux(addr, DebugMux(reg))
}

// ServeMux is Serve with a caller-built handler (typically DebugMux plus
// service endpoints). It binds eagerly and serves until Shutdown.
func ServeMux(addr string, mux http.Handler) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeMuxListener(ln, mux), nil
}

// ServeMuxListener is ServeMux over a listener the caller already bound —
// for services that bind before the handler can exist (dedcd binds before
// recovering its job store, so a busy address fails fast). The server owns
// ln from here on.
func ServeMuxListener(ln net.Listener, mux http.Handler) *DebugServer {
	s := &DebugServer{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s
}

// Addr returns the bound listen address (useful with port 0).
func (s *DebugServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops the server gracefully: no new connections, in-flight
// requests drain until ctx expires, then everything is torn down hard. Safe
// on nil.
func (s *DebugServer) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Deadline hit with requests still in flight: close them.
		if cerr := s.srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	<-s.done
	return err
}
