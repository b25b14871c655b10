package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/room"
	"repro/internal/sched"
)

// TestPrintMetricsIdentityLine exercises the breakdown printer on a
// hand-built registry: every pin reason in the taxonomy appears (zero
// counts included) in the fixed PinReasonNames order, and the identity
// line reports Σ pins, total advances and macro windows verbatim.
func TestPrintMetricsIdentityLine(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("kernel.steps.total").Add(10)
	reg.Counter("kernel.windows.macro").Add(7)
	reg.Counter("kernel.grid.steps").Add(100)
	reg.Counter("kernel.pin.arrival").Add(2)
	reg.Counter("kernel.pin.backlog").Add(1)

	var sb strings.Builder
	printMetrics(&sb, reg, rackPins)
	out := sb.String()
	if !strings.Contains(out, "pin identity: Σ pins 3 = rack advances 10 − macro windows 7 (grid steps crossed: 100)") {
		t.Errorf("identity line missing or wrong:\n%s", out)
	}
	// The full taxonomy prints in fixed order, zero counts included, so
	// two runs diff line-by-line.
	prev := -1
	for _, name := range sched.PinReasonNames() {
		idx := strings.Index(out, "  "+name+" ")
		if idx < 0 {
			t.Errorf("pin reason %q missing from breakdown:\n%s", name, out)
			continue
		}
		if idx < prev {
			t.Errorf("pin reason %q out of order:\n%s", name, out)
		}
		prev = idx
	}
	if !strings.Contains(out, "kernel.steps.total 10") {
		t.Errorf("sorted dump missing:\n%s", out)
	}
}

// TestPrintMetricsRoomMode: a room run's registry prints the room
// kernel's pin table — room.pin.* with Σ = room.rack.steps.total −
// room.windows.macro — and printing registers no counter of its own, so
// the dump carries no all-zero kernel.* entries of the rack kernel that
// never ran.
func TestPrintMetricsRoomMode(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("room.rack.steps.total").Add(553)
	reg.Counter("room.windows.macro").Add(466)
	reg.Counter("room.grid.steps").Add(1800)
	reg.Counter("room.pin.arrival").Add(38)
	reg.Counter("room.pin.completion").Add(45)
	reg.Counter("room.pin.controller").Add(4)
	before := len(reg.Snapshot())

	var sb strings.Builder
	printMetrics(&sb, reg, roomPins)
	out := sb.String()
	if !strings.Contains(out, "pin identity: Σ pins 87 = rack advances 553 − macro windows 466 (grid steps crossed: 1800)") {
		t.Errorf("room identity line missing or wrong:\n%s", out)
	}
	for _, name := range room.PinReasonNames() {
		if !strings.Contains(out, "  "+name+" ") {
			t.Errorf("room pin reason %q missing from breakdown:\n%s", name, out)
		}
	}
	if after := len(reg.Snapshot()); after != before {
		t.Errorf("printing registered %d new metrics", after-before)
	}
	if strings.Contains(out, "kernel.") {
		t.Errorf("room dump carries rack-kernel counters:\n%s", out)
	}
}

// TestServeDebug spins the -debugaddr server on an ephemeral port and
// checks both halves of the surface: /metrics serves the registry in
// Prometheus text format, and the pprof index answers.
func TestServeDebug(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("kernel.steps.total").Add(42)

	hostport, err := serveDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + hostport + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !strings.Contains(body, "# TYPE kernel_steps_total counter") ||
		!strings.Contains(body, "kernel_steps_total 42") {
		t.Errorf("/metrics body not Prometheus text format:\n%s", body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", code)
	}
}
