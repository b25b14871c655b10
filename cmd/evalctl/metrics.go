package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/obs"
	"repro/internal/room"
	"repro/internal/sched"
)

// pinTable names one kernel's pin-reason counters: the metric prefix, the
// taxonomy in attribution order, and the counters of the Σ pins identity.
type pinTable struct {
	what     string   // "rack" or "room", for the headings
	prefix   string   // pin counter prefix, e.g. "kernel.pin."
	names    []string // reasons in attribution-priority order
	advances string   // per-rack advances counter (single steps and windows)
	windows  string   // macro windows counter
	grid     string   // fixed-dt steps crossed counter
}

// rackPins and roomPins are the two kernels' tables: -rack, -facility and
// -faults run the rack trace kernel; -room runs the room kernel, whose
// per-rack sub-kernels advance in chunks.
var (
	rackPins = pinTable{"rack", "kernel.pin.", sched.PinReasonNames(),
		"kernel.steps.total", "kernel.windows.macro", "kernel.grid.steps"}
	roomPins = pinTable{"room", "room.pin.", room.PinReasonNames(),
		"room.rack.steps.total", "room.windows.macro", "room.grid.steps"}
)

// printMetrics renders the run-metrics registry after an experiment: the
// pin-reason breakdown of the kernel the mode actually ran, with its sum
// identity — Σ per-reason single steps = total rack advances − macro
// windows, exact by construction — followed by the full sorted dump. Every
// reason in the taxonomy prints, zero or not, in the fixed order, so runs
// are diffable line-by-line. Values are read through one Snapshot, so
// printing registers nothing: a counter the run never touched reads 0
// without appearing in the dump.
func printMetrics(w io.Writer, reg *obs.Registry, pt pinTable) {
	vals := map[string]int64{}
	for _, m := range reg.Snapshot() {
		if m.Kind == obs.KindCounter {
			vals[m.Name] = int64(m.Value)
		}
	}
	fmt.Fprintf(w, "\nPin-reason breakdown (why the %s kernel advanced one step instead of a macro window):\n", pt.what)
	var sum int64
	for _, name := range pt.names {
		v := vals[pt.prefix+name]
		sum += v
		fmt.Fprintf(w, "  %-12s %10d\n", name, v)
	}
	fmt.Fprintf(w, "pin identity: Σ pins %d = rack advances %d − macro windows %d (grid steps crossed: %d)\n",
		sum, vals[pt.advances], vals[pt.windows], vals[pt.grid])
	fmt.Fprintf(w, "\nRun metrics (sorted; deterministic for every worker count):\n")
	reg.WriteText(w)
}

// serveDebug binds addr and serves /metrics (Prometheus text format of the
// live registry) plus the standard net/http/pprof endpoints for the rest
// of the process lifetime — the long-run introspection surface. Binding
// errors are returned immediately; serve errors after a successful bind
// are ignored (the experiment is the process's real job).
func serveDebug(addr string, reg *obs.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("evalctl: -debugaddr %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux) //nolint:errcheck — see doc comment
	hostport := ln.Addr().String()
	// Rewrite the unspecified host for a copy-pasteable URL.
	if host, port, err := net.SplitHostPort(hostport); err == nil {
		if host == "::" || host == "0.0.0.0" || strings.TrimSpace(host) == "" {
			hostport = net.JoinHostPort("127.0.0.1", port)
		}
	}
	return hostport, nil
}
