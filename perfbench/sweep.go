package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"tanoq/internal/scenario"
	"tanoq/internal/store"
	"tanoq/internal/telemetry"
)

// pass is the outcome of one sweep of a workload's grid.
type pass struct {
	// setup covers resolve, grid expansion and store open; wall runs
	// from the Resolve call until every report is rendered.
	setup, wall time.Duration
	// cellMS holds one latency per visible cell, in milliseconds: the
	// runner's wall time for executed cells, and the gap since the
	// previous cached cell landed for cells served from the store.
	cellMS []float64
	// allocBytes is the Go heap allocated during the pass.
	allocBytes uint64
	cells      int
	executed   int
	cached     int
	// failed counts failed and skipped cells.
	failed  int
	retries int
	digest  string
	rows    []scenario.Result
}

// reports is everything a sweep renders: the CSV table, the JSON
// report, and the telemetry timelines as JSON and long-format CSV.
type reports struct {
	csv, json, timelineJSON, timelineCSV []byte
}

// render runs the report emitters over a sweep's rows.
func render(name string, rows []scenario.Result) (reports, error) {
	var r reports
	r.csv = []byte(scenario.CSV(name, rows))
	var err error
	if r.json, err = scenario.JSONReport(name, rows); err != nil {
		return r, err
	}
	r.timelineJSON, r.timelineCSV, err = emitTimelines(rows)
	return r, err
}

// emitTimelines renders every probed row's timeline through the
// telemetry emitters (nil output when no row carries one).
func emitTimelines(rows []scenario.Result) (js, csv []byte, err error) {
	var jb, cb bytes.Buffer
	for i := range rows {
		tl := rows[i].Timeline
		if tl == nil {
			continue
		}
		if cb.Len() == 0 {
			cb.WriteString(telemetry.CSVHeader)
		}
		blob, err := json.Marshal(tl)
		if err != nil {
			return nil, nil, fmt.Errorf("timeline of cell %d: %w", i, err)
		}
		jb.Write(blob)
		jb.WriteByte('\n')
		if err := tl.WriteCSV(&cb, fmt.Sprintf("cell%d", i)); err != nil {
			return nil, nil, err
		}
	}
	return jb.Bytes(), cb.Bytes(), nil
}

// sweepPass runs one untraced sweep the way `noctool sweep -cache`
// does: resolve the scenario file, expand the grid, open the store,
// run the grid durably with a per-cell callback, and render the
// reports. storeDir names an empty directory for cold workloads and
// the filled store for warm ones.
func sweepPass(input, storeDir string) (pass, error) {
	var p pass
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var (
		mu   sync.Mutex
		last time.Time
	)
	onCell := func(ev scenario.CellEvent) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch {
		case ev.Cached:
			if !last.IsZero() {
				p.cellMS = append(p.cellMS, float64(now.Sub(last))/1e6)
			}
		case !ev.Failed && !ev.Skipped:
			p.cellMS = append(p.cellMS, float64(ev.Wall)/1e6)
		}
		last = now
	}

	t0 := time.Now()
	sc, _, err := scenario.Resolve(scenario.FileLayer(input))
	if err != nil {
		return p, err
	}
	g, err := sc.Grid()
	if err != nil {
		return p, err
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return p, err
	}
	p.setup = time.Since(t0)
	rep, err := g.RunDurable(context.Background(), scenario.DurableOpts{
		RunOpts: scenario.RunOpts{Workers: workers, OnCell: onCell},
		Store:   st,
	})
	if err != nil {
		return p, err
	}
	out, err := render(sc.Name, rep.Results)
	if err != nil {
		return p, err
	}
	p.wall = time.Since(t0)

	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.cells, p.executed = len(rep.Results), rep.Executed
	p.failed = rep.Failed + rep.Skipped
	for _, r := range rep.Results {
		if r.Attempts > 1 {
			p.retries += r.Attempts - 1
		}
	}
	p.rows = rep.Results
	p.digest, err = rowsDigest(out)
	return p, err
}

// rowsDigest hashes a sweep's output with the wall-clock columns
// (wall_ms, cycles_per_sec) removed from every row: the JSON report's
// rows, canonicalised, followed by the timeline JSON. Two runs of the
// same grid and engine give the same digest whatever their speed.
func rowsDigest(out reports) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(out.json))
	dec.UseNumber()
	var rep struct {
		Scenario string           `json:"scenario"`
		Results  []map[string]any `json:"results"`
	}
	if err := dec.Decode(&rep); err != nil {
		return "", fmt.Errorf("digest: decode report: %w", err)
	}
	for _, row := range rep.Results {
		delete(row, "wall_ms")
		delete(row, "cycles_per_sec")
	}
	canon, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h := sha256.New()
	h.Write(canon)
	h.Write(out.timelineJSON)
	return hex.EncodeToString(h.Sum(nil)), nil
}
