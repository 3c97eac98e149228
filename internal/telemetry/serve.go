package telemetry

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
)

// Server is a running telemetry HTTP endpoint: a handle over the listener
// and the background serve goroutine.  It exists so drivers that start and
// stop diagnostics repeatedly — the live runtime's soak cycles, tests on
// ephemeral ports — can release the port instead of leaking a listener per
// start, and can observe serve errors instead of losing them.
type Server struct {
	ln   net.Listener
	done chan struct{} // closed when the serve loop exits

	mu     sync.Mutex
	err    error // first serve failure, nil after a clean Close
	closed bool
	srv    *http.Server
}

// Addr returns the bound address (useful with a ":0" request address).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Err returns the first error the serve loop hit, or nil.  After Close it
// stays nil for a clean shutdown; while serving it surfaces failures that
// the old fire-and-forget goroutine used to discard.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close shuts the endpoint down and releases the listener.  It is
// idempotent and returns the first serve error, if any.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.Err()
	}
	s.closed = true
	srv := s.srv
	s.mu.Unlock()
	srv.Close()
	<-s.done
	return s.Err()
}

// Serve starts the telemetry HTTP endpoint on addr in a background
// goroutine and returns a handle exposing the bound address, serve errors,
// and shutdown.  The endpoint serves:
//
//	/debug/vars         expvar JSON (includes the "telemetry" snapshot)
//	/debug/pprof/...    net/http/pprof profiles
//	/telemetry          the registry Snapshot alone, pretty-printed
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot())
	})
	s := &Server{ln: ln, done: make(chan struct{}), srv: &http.Server{Handler: mux}}
	go func() {
		defer close(s.done)
		err := s.srv.Serve(ln)
		s.mu.Lock()
		defer s.mu.Unlock()
		// http.Server.Close makes Serve return ErrServerClosed; that is the
		// clean-shutdown path, not a failure.
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	}()
	return s, nil
}

// Flags is the -telemetry.addr/-trace.out pair every cmd/* binary
// declares with RegisterFlags and starts telemetry from with Init.
type Flags struct {
	// Addr, when set, serves expvar, pprof and metrics over HTTP there.
	Addr string
	// TraceOut, when set, names the Chrome trace_event file written on exit.
	TraceOut string
}

// RegisterFlags declares -telemetry.addr and -trace.out on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.StringVar(&f.Addr, "telemetry.addr", "", "serve expvar+pprof+metrics on this address")
	fs.StringVar(&f.TraceOut, "trace.out", "", "write a Chrome trace_event JSON file on exit")
	return f
}

// Init returns the Sink to thread through the run and a cleanup function to
// defer (it flushes the trace, if requested, and shuts the HTTP endpoint
// down).
//
// When both flags are empty, telemetry is disabled: Init returns an untyped
// nil Sink (so instrumentation sites' `tel != nil` checks stay false — never
// a typed-nil *Registry wrapped in the interface) and a no-op cleanup.
//
// Otherwise the process Default registry is used: Addr != "" starts the HTTP
// endpoint (logging the bound address to stderr), and TraceOut != "" creates
// the trace file at once — an unwritable path is Init's error, not a
// warning at exit — and makes cleanup write the Chrome trace_event JSON to
// it.
func (f *Flags) Init() (Sink, func(), error) {
	if f.Addr == "" && f.TraceOut == "" {
		return nil, func() {}, nil
	}
	reg := Default()
	var srv *Server
	if f.Addr != "" {
		var err error
		srv, err = Serve(f.Addr, reg)
		if err != nil {
			return nil, func() {}, err
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving expvar/pprof on http://%s/debug/vars\n", srv.Addr())
	}
	var out *os.File
	if f.TraceOut != "" {
		var err error
		if out, err = os.Create(f.TraceOut); err != nil {
			if srv != nil {
				srv.Close()
			}
			return nil, func() {}, fmt.Errorf("telemetry: %w", err)
		}
		reg.EnableTracing()
	}
	cleanup := func() {
		if out != nil {
			err := reg.Trace().WriteChromeTrace(out)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			}
		}
		if srv != nil {
			if err := srv.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			}
		}
	}
	return reg, cleanup, nil
}
