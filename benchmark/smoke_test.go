package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every in-process workload once at tiny scale, untraced and
// traced, through the same runner a real run uses. It measures nothing; it
// checks that the code path works, that every op verifies, and that every
// metric of the run's kind is reported, inside a tier-1 time budget.
func TestSmoke(t *testing.T) {
	start := time.Now()
	host := readHost()
	exp := &expected{Workloads: map[string]map[string]opStats{}}
	for _, def := range workloadDefs {
		if len(def.Bins) > 0 {
			continue // drives child daemons; not for a unit test
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{Workload: def.Name, Seed: 3, Seconds: 0, Trace: traced, Smoke: true}
			out, err := runWorkload(context.Background(), cfg, def, exp, host, io.Discard)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", def.Name, traced, err)
			}
			if out.Attempted == 0 || out.Failed != 0 {
				t.Errorf("%s (trace %v): %d ops attempted, %d failed: %v", def.Name, traced, out.Attempted, out.Failed, out.Failures)
			}
			for _, m := range endToEnd {
				if v, ok := out.Values[m.Name]; !ok || v <= 0 {
					t.Errorf("%s (trace %v): end-to-end metric %s = %v, want a positive value", def.Name, traced, m.Name, v)
				}
			}
			if !traced {
				continue
			}
			for _, m := range perLayer {
				if _, ok := out.Values[m.Name]; !ok {
					t.Errorf("%s: per-layer metric %s not reported", def.Name, m.Name)
				}
			}
			if v := out.Values["soc.run_s"]; def.Name != "frontend_cold" && def.Name != "sweep_grid" && v <= 0 {
				t.Errorf("%s: soc.run_s = %v, want the run spans to have been recorded", def.Name, v)
			}
		}
	}
	if took := time.Since(start); took > 10*time.Second && !raceDetector {
		t.Errorf("smoke took %v, want under 10s", took)
	}
}

// The report's last line is the one JSON object the driver reads.
func TestReportLastLineIsTheResult(t *testing.T) {
	out := newResults()
	out.Attempted, out.Failed = 12, 0
	for i, m := range endToEnd {
		out.Values[m.Name] = float64(i) + 0.5
	}
	var buf bytes.Buffer
	if err := report(&buf, runConfig{Workload: "dense_1t", Seed: 1}, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	var res runResult
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields() // exactly correct, attempted, failed, metrics
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if !res.Correct || res.Attempted != 12 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", res)
	}
	if m := res.Metrics["setup_s"]; m.Unit != "s" || m.Value != 0.5 {
		t.Errorf("setup_s = %+v", m)
	}
}
