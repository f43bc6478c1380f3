package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"tanoq/internal/scenario"
)

// sampleValue matches a trailing sample value the way metrics-smoke's
// sed rule does, so the rendered exposition can be diffed against the
// committed golden modulo values.
var sampleValue = regexp.MustCompile(`(?m) [0-9][0-9.eE+-]*$`)

// TestSweepMetricsExpositionGolden pins the /metrics exposition shape:
// with values masked, one worker's render must match the golden the
// metrics-smoke target scrapes against.
func TestSweepMetricsExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("../../examples/sweep/metrics-smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	m := newSweepMetrics(3, 1)
	m.onCell(scenario.CellEvent{Cell: 0, Cached: true, Worker: -1})
	m.onCell(scenario.CellEvent{Cell: 1, Attempts: 2, Wall: 40 * time.Millisecond, Cycles: 12_000, Worker: 0})
	m.onCell(scenario.CellEvent{Cell: 2, Failed: true, Attempts: 2, Wall: 5 * time.Millisecond, Worker: 0})
	var buf bytes.Buffer
	m.render(&buf)
	got := sampleValue.ReplaceAllString(buf.String(), " V")
	if got != string(want) {
		t.Errorf("exposition drifted from metrics-smoke.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestProgressLineETA pins the -progress accounting: no ETA before any
// cell executed (cache hits say nothing about simulation cost) or once
// nothing remains, and otherwise the executed mean wall-clock times the
// remaining cells, spread across the worker pool.
func TestProgressLineETA(t *testing.T) {
	exec := func(wall time.Duration) scenario.CellEvent {
		return scenario.CellEvent{Attempts: 1, Wall: wall, Worker: 0}
	}
	cached := scenario.CellEvent{Cached: true, Worker: -1}
	for _, tc := range []struct {
		name    string
		total   int
		workers int
		events  []scenario.CellEvent
		prefix  string
		eta     string // "" means no ETA field
	}{
		{"nothing done", 10, 2, nil, "progress: 0/10 cells (0 cached, 0 failed)", ""},
		{"only cached", 10, 2, []scenario.CellEvent{cached, cached, cached}, "progress: 3/10 cells (3 cached, 0 failed)", ""},
		{"executed and remaining", 10, 2,
			[]scenario.CellEvent{cached, cached, exec(time.Second), exec(3 * time.Second)},
			"progress: 4/10 cells (2 cached, 0 failed)", ", ETA 6s"},
		{"one worker", 5, 1,
			[]scenario.CellEvent{exec(500 * time.Millisecond)},
			"progress: 1/5 cells (0 cached, 0 failed)", ", ETA 2s"},
		{"all done", 2, 2, []scenario.CellEvent{cached, exec(time.Second)}, "progress: 2/2 cells (1 cached, 0 failed)", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newSweepMetrics(tc.total, tc.workers)
			for _, ev := range tc.events {
				m.onCell(ev)
			}
			line := m.progressLine()
			if !strings.HasPrefix(line, tc.prefix+", ") || !strings.Contains(line, " elapsed") {
				t.Errorf("progress line %q, want prefix %q and an elapsed field", line, tc.prefix)
			}
			if tc.eta == "" {
				if strings.Contains(line, "ETA") {
					t.Errorf("progress line %q carries an ETA, want none", line)
				}
			} else if !strings.HasSuffix(line, tc.eta) {
				t.Errorf("progress line %q, want ETA suffix %q", line, tc.eta)
			}
		})
	}
}
