package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"tanoq/internal/network"
	"tanoq/internal/runner"
	"tanoq/internal/scenario"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
	"tanoq/internal/store"
	"tanoq/internal/telemetry"
	"tanoq/internal/traffic"
	"tanoq/internal/workload"
)

// span is one traced interval at a layer boundary. Start and End are
// nanoseconds since the trace origin; Parent is the index of the span
// that caused it (-1 for the sweep root), Cell the grid index of the
// cell it belongs to (-1 outside cells) and Worker the runner slot it
// ran on (-1 off the worker pool).
type span struct {
	Sweep  string `json:"sweep"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a sweep's spans in memory; a span's ID is its index.
type tracer struct {
	sweep  string
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(sweep string) *tracer {
	return &tracer{sweep: sweep, origin: time.Now()}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, cell, worker int) int {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Sweep: t.sweep, Name: name, Parent: parent,
		Cell: cell, Worker: worker, Start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover. Children that overlap each other,
// as sibling cells on different workers do, are merged first, so the
// shared stretch is subtracted once.
func selfTimes(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered returns the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for k, iv := range clipped {
		switch {
		case k == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] > curB:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		case iv[1] > curB:
			curB = iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

// workCounts are the deterministic amounts of simulated work a sweep
// did, read from the engine's public counters. A change that only
// makes the program faster leaves every one of them unchanged.
type workCounts struct {
	Cycles            int64 `json:"cycles"`
	FlitHops          int64 `json:"flit_hops"`
	DeliveredFlits    int64 `json:"delivered_flits"`
	Preemptions       int64 `json:"preemptions"`
	CompletedRequests int64 `json:"completed_requests"`
	CellsExecuted     int64 `json:"cells_executed"`
	CellsCached       int64 `json:"cells_cached"`
}

// tracedPass is one sweep driven cell by cell from outside the runner
// with a span at every layer boundary.
type tracedPass struct {
	wall   time.Duration
	digest string
	spans  []span
	// work totals cellWork over the cells that did not fail.
	work   workCounts
	cells  int
	failed int
	// Per cell: QoS mode name, work counts, timeline samples, and the
	// store payload size read or written.
	mode     []string
	cellWork []workCounts
	samples  []int64
	rowBytes []int
}

// storedRow mirrors the result store's row payload, so the traced
// pass reads and writes the same entries the durable runner does.
type storedRow struct {
	MeanLatency       float64 `json:"mean_latency"`
	P99Latency        float64 `json:"p99_latency"`
	Accepted          float64 `json:"accepted"`
	PreemptionPct     float64 `json:"preemption_pct"`
	Delivered         int64   `json:"delivered"`
	End               int64   `json:"end"`
	TputMinPct        float64 `json:"tput_min_pct"`
	TputMaxPct        float64 `json:"tput_max_pct"`
	TputStdDevPct     float64 `json:"tput_stddev_pct"`
	Completed         int64   `json:"completed"`
	MeanRTT           float64 `json:"mean_rtt"`
	P99RTT            float64 `json:"p99_rtt"`
	DeliveredFraction float64 `json:"delivered_fraction"`
	Retries           int64   `json:"retries"`
	Drops             int64   `json:"drops"`
	MeanRecovery      float64 `json:"mean_recovery"`
	VictimSlowdown    float64 `json:"victim_slowdown"`
	Attempts          int     `json:"attempts"`
	WallNS            int64   `json:"wall_ns"`
}

func storedRowOf(r *scenario.Result) storedRow {
	return storedRow{
		MeanLatency: r.MeanLatency, P99Latency: r.P99Latency,
		Accepted: r.Accepted, PreemptionPct: r.PreemptionPct,
		Delivered: r.Delivered, End: int64(r.End),
		TputMinPct: r.TputMinPct, TputMaxPct: r.TputMaxPct, TputStdDevPct: r.TputStdDevPct,
		Completed: r.Completed, MeanRTT: r.MeanRTT, P99RTT: r.P99RTT,
		DeliveredFraction: r.DeliveredFraction, Retries: r.Retries,
		Drops: r.Drops, MeanRecovery: r.MeanRecovery,
		VictimSlowdown: r.VictimSlowdown, Attempts: r.Attempts, WallNS: int64(r.Wall),
	}
}

func (c *storedRow) result(p scenario.Point) scenario.Result {
	cps := 0.0
	if c.WallNS > 0 {
		cps = float64(c.End) / (float64(c.WallNS) / 1e9)
	}
	return scenario.Result{
		Point:       p,
		MeanLatency: c.MeanLatency, P99Latency: c.P99Latency,
		Accepted: c.Accepted, PreemptionPct: c.PreemptionPct,
		Delivered: c.Delivered, End: sim.Cycle(c.End),
		TputMinPct: c.TputMinPct, TputMaxPct: c.TputMaxPct, TputStdDevPct: c.TputStdDevPct,
		Completed: c.Completed, MeanRTT: c.MeanRTT, P99RTT: c.P99RTT,
		DeliveredFraction: c.DeliveredFraction, Retries: c.Retries,
		Drops: c.Drops, MeanRecovery: c.MeanRecovery,
		VictimSlowdown: c.VictimSlowdown, Attempts: c.Attempts,
		Wall: time.Duration(c.WallNS), CyclesPerSec: cps,
	}
}

// measuredRow derives a cell's result row from its finished network,
// the way the sweep does for grids without victim flows.
func measuredRow(p scenario.Point, cell runner.Cell, n *network.Network, ct *workload.Controller, wall time.Duration) scenario.Result {
	st := n.Stats()
	out := scenario.Result{Point: p, Attempts: 1}
	out.MeanLatency = st.MeanLatency()
	out.P99Latency = float64(st.Latencies.Percentile(99))
	out.End = n.Now()
	out.Accepted = st.AcceptedFlitRate(out.End)
	out.PreemptionPct = st.PreemptionPacketRate()
	out.Delivered = st.TotalDelivered
	out.DeliveredFraction = st.DeliveredFraction()
	out.Retries = st.TotalRetries
	out.Drops = st.TotalDropped
	out.MeanRecovery = st.MeanRecoveryLatency()
	out.Wall = wall
	if wall > 0 {
		out.CyclesPerSec = float64(out.End) / wall.Seconds()
	}
	var summary stats.Summary
	if ct != nil {
		summary = stats.Summarize(ct.RT.PerClient())
		out.Completed = ct.RT.TotalCompleted()
		out.MeanRTT = ct.RT.MeanRTT()
		out.P99RTT = float64(ct.RT.Latencies.Percentile(99))
	} else {
		flits := st.FlitsByFlow()
		var vals []float64
		for _, s := range cell.Config.Workload.Specs {
			if s.Rate > 0 || s.Replay != nil {
				vals = append(vals, float64(flits[s.Flow]))
			}
		}
		summary = stats.Summarize(vals)
	}
	out.TputMinPct = summary.MinPctOfMean()
	out.TputMaxPct = summary.MaxPctOfMean()
	out.TputStdDevPct = summary.StdDevPctOfMean()
	return out
}

// runTraced sweeps the grid with tracing on. It makes the same public
// calls as an untraced pass but drives each cell itself, so that the
// store lookup, engine reset, workload and telemetry attachment,
// warmup, measurement and store write of every cell get a span:
// warmup runs as Stats().Pause(); Run(warmup) and measurement as
// WarmupAndMeasure(0, measure), which together are state-identical
// to WarmupAndMeasure(warmup, measure). A failed cell is not retried.
func runTraced(sweepID, input, storeDir string) (*tracedPass, error) {
	tr := newTracer(sweepID)
	t0 := time.Now()
	root := tr.begin("sweep", -1, -1, -1)

	id := tr.begin("resolve", root, -1, -1)
	sc, _, err := scenario.Resolve(scenario.FileLayer(input))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("grid", root, -1, -1)
	g, err := sc.Grid()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("keys", root, -1, -1)
	keys, err := g.Keys()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("store.open", root, -1, -1)
	st, err := store.Open(storeDir)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	n := g.Size()
	tp := &tracedPass{cells: n, mode: make([]string, n), cellWork: make([]workCounts, n),
		samples: make([]int64, n), rowBytes: make([]int, n)}
	rows := make([]scenario.Result, n)
	failed := make([]bool, n)
	nets := make([]*network.Network, workers)

	var tcfg *telemetry.Options
	if t := sc.Telemetry; t != nil {
		tcfg = &telemetry.Options{Interval: t.Interval, Horizon: sim.Cycle(sc.Warmup + sc.Measure),
			TopFlows: t.TopFlows, Series: t.Series}
	}

	// Like the durable runner: serve hits in grid order first, then
	// run the misses on the worker pool.
	lookup := tr.begin("lookup", root, -1, -1)
	var missed []int
	for i, p := range g.Points {
		tp.mode[i] = p.Mode.String()
		sid := tr.begin("store.get", lookup, i, -1)
		blob, ok := st.Get(keys[i])
		var sr storedRow
		ok = ok && json.Unmarshal(blob, &sr) == nil
		tr.end(sid)
		if ok {
			rows[i], tp.rowBytes[i] = sr.result(p), len(blob)
			tp.cellWork[i].CellsCached = 1
		} else {
			missed = append(missed, i)
		}
	}
	tr.end(lookup)

	exec := tr.begin("execute", root, -1, -1)
	runCell := func(mi, wk int) {
		i := missed[mi]
		cid := tr.begin("cell", exec, i, wk)
		defer tr.end(cid)
		defer func() {
			if r := recover(); r != nil {
				failed[i] = true
				nets[wk] = nil
				rows[i] = scenario.Result{Point: g.Points[i], Error: fmt.Sprint(r)}
			}
		}()
		p := g.Points[i]
		cell := g.Cell(i)
		sid := tr.begin("reset", cid, i, wk)
		net := nets[wk]
		if net == nil {
			net = network.MustNew(cell.Config)
			nets[wk] = net
		} else if err := net.Reset(cell.Config); err != nil {
			panic(err)
		}
		tr.end(sid)

		sid = tr.begin("setup", cid, i, wk)
		var ct *workload.Controller
		if p.Workload == "closed" {
			aid := tr.begin("workload.attach", sid, i, wk)
			ct = attachClients(net, sc, p)
			tr.end(aid)
		}
		var smp *telemetry.Sampler
		if tcfg != nil {
			aid := tr.begin("telemetry.attach", sid, i, wk)
			smp = telemetry.Attach(net, *tcfg)
			tr.end(aid)
		}
		tr.end(sid)

		simStart := time.Now()
		wid := tr.begin("warmup", cid, i, wk)
		net.Stats().Pause()
		net.Run(cell.Warmup)
		tr.end(wid)
		mid := tr.begin("measure", cid, i, wk)
		net.WarmupAndMeasure(0, cell.Measure)
		tr.end(mid)

		row := measuredRow(p, cell, net, ct, time.Since(simStart))
		if smp != nil {
			row.Timeline = smp.Timeline()
			tp.samples[i] = int64(row.Timeline.Samples())
		}
		rows[i] = row
		s := net.Stats()
		tp.cellWork[i] = workCounts{Cycles: int64(net.Now()), FlitHops: s.TotalHops,
			DeliveredFlits: s.Totals().DeliveredFlits, Preemptions: s.PreemptionEvents, CellsExecuted: 1}
		if ct != nil {
			tp.cellWork[i].CompletedRequests = ct.RT.TotalCompleted()
		}

		sid = tr.begin("store.put", cid, i, wk)
		blob, err := json.Marshal(storedRowOf(&row))
		if err == nil {
			err = st.Put(keys[i], blob)
		}
		tr.end(sid)
		if err != nil {
			panic(err)
		}
		tp.rowBytes[i] = len(blob)
	}
	runner.DoWorker(len(missed), workers, runCell)
	tr.end(exec)

	id = tr.begin("render", root, -1, -1)
	var out reports
	out.csv = []byte(scenario.CSV(sc.Name, rows))
	out.json, err = scenario.JSONReport(sc.Name, rows)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("emit", root, -1, -1)
	out.timelineJSON, out.timelineCSV, err = emitTimelines(rows)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	tp.wall = time.Since(t0)

	for i, w := range tp.cellWork {
		if failed[i] {
			tp.failed++
			continue
		}
		tp.work.Cycles += w.Cycles
		tp.work.FlitHops += w.FlitHops
		tp.work.DeliveredFlits += w.DeliveredFlits
		tp.work.Preemptions += w.Preemptions
		tp.work.CompletedRequests += w.CompletedRequests
		tp.work.CellsExecuted += w.CellsExecuted
		tp.work.CellsCached += w.CellsCached
	}
	tp.spans = tr.spans
	tp.digest, err = rowsDigest(out)
	return tp, err
}

// attachClients attaches a closed-loop cell's request–reply clients,
// configured from its grid point the way the scenario's grid does.
func attachClients(n *network.Network, sc *scenario.Scenario, p scenario.Point) *workload.Controller {
	var pattern traffic.Pattern
	var err error
	if p.Pattern == "hotspot" && sc.HotspotWeights != nil {
		pattern = traffic.HotspotTraffic(sc.HotspotWeights)
	} else if pattern, err = traffic.PatternByName(p.Pattern); err != nil {
		panic(err)
	}
	ct, err := workload.NewController(n, workload.ClientConfig{
		Outstanding: p.Outstanding, ThinkMean: p.Think, Pattern: pattern, Seed: p.Seed,
		RequestFlits: sc.RequestFlits, ReplyFlits: sc.ReplyFlits,
	})
	if err != nil {
		panic(err)
	}
	return ct
}

// writeSpans writes a traced sweep's spans, with their self times, to
// path as JSON.
func writeSpans(path string, tp *tracedPass) error {
	self := selfTimes(tp.spans)
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]out, len(tp.spans))
	for i, s := range tp.spans {
		rows[i] = out{s, self[i]}
	}
	blob, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
