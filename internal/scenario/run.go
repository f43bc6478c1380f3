package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
	"tanoq/internal/telemetry"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
	"tanoq/internal/workload"
)

// Point labels one cell of an expanded sweep grid.
type Point struct {
	// Pattern is the synthetic pattern name, or "flows" for explicit
	// injector lists.
	Pattern  string
	Topology topology.Kind
	Mode     qos.Mode
	Seed     uint64
	// Rate is the per-injector offered load of the point; explicit-flows
	// scenarios report their aggregate offered load instead. Closed-loop
	// and replay cells have no offered-load axis and report zero.
	Rate float64
	// Workload is the cell's workload class: "open", "closed", or
	// "replay:<trace>" for trace-replay cells.
	Workload string
	// Outstanding and Think are the closed-loop axes (zero elsewhere).
	Outstanding int
	Think       float64
	// RetryTimeout and MaxRetries are the end-to-end recovery axes from
	// the [faults] table (zero when the scenario arms no recovery).
	RetryTimeout sim.Cycle
	MaxRetries   int
}

// Grid is a fully-expanded scenario: the cross product of the sweep axes
// (pattern × topology × qos × seed × rate), one independent simulation
// cell per point, in that nesting order — the same cell layout the
// built-in experiment drivers use, which is what makes a scenario file
// reproduce them bit-identically.
type Grid struct {
	Scenario *Scenario
	Points   []Point
	cells    []runner.Cell
	meta     []cellMeta
	// refCells are hidden victim-only reference cells (one per topology ×
	// qos × seed when the scenario declares victim roles), run alongside
	// the grid to anchor the victim-slowdown metric. They produce no
	// result rows of their own.
	refCells []runner.Cell
}

// cellMeta carries what Run needs beyond the cell itself: the flows the
// fairness dispersion is computed over (open/flows/replay cells) or the
// closed-loop marker (dispersion over clients instead), plus the victim
// flows and the reference cell their slowdown is measured against.
type cellMeta struct {
	active  []noc.FlowID
	closed  bool
	victims []noc.FlowID
	// ref indexes refCells; only consulted when victims is non-empty.
	ref int
	// trace is the resolved trace-file path of a replay cell (empty
	// elsewhere); the result cache digests the file into the cell's key.
	trace string
}

// cellAux bundles what a telemetry-armed cell's Setup returns: the
// inner attachment (the closed-loop controller, or nil) plus the
// sampler whose timeline the row derivation surfaces.
type cellAux struct {
	inner   any
	sampler *telemetry.Sampler
}

// armTelemetry wraps a visible cell's Setup to attach an in-run sampler
// when the scenario declares a [telemetry] table. Attachment happens
// per execution on the freshly-reset engine, exactly like the
// closed-loop controller, so probed cells stay bit-identical across
// workers and idle-skip. Hidden victim reference cells are never armed
// — their rows are internal baselines.
func armTelemetry(cell *runner.Cell, sc *Scenario) {
	tcfg := sc.Telemetry
	if tcfg == nil {
		return
	}
	opts := telemetry.Options{
		Interval: tcfg.Interval,
		Horizon:  sim.Cycle(sc.Warmup + sc.Measure),
		TopFlows: tcfg.TopFlows,
		Series:   tcfg.Series,
	}
	inner := cell.Setup
	cell.Setup = func(n *network.Network) any {
		var aux any
		if inner != nil {
			aux = inner(n)
		}
		return &cellAux{inner: aux, sampler: telemetry.Attach(n, opts)}
	}
}

// activeFlows lists the flows a workload actually injects on.
func activeFlows(w traffic.Workload) []noc.FlowID {
	var out []noc.FlowID
	for _, s := range w.Specs {
		if s.Rate > 0 || s.Replay != nil {
			out = append(out, s.Flow)
		}
	}
	return out
}

// Grid expands the scenario into its run grid.
func (sc *Scenario) Grid() (*Grid, error) {
	g := &Grid{Scenario: sc}
	add := func(p Point, cell runner.Cell, m cellMeta) {
		cell.Warmup, cell.Measure = sc.Warmup, sc.Measure
		armTelemetry(&cell, sc)
		g.Points = append(g.Points, p)
		g.cells = append(g.cells, cell)
		g.meta = append(g.meta, m)
	}
	if len(sc.Traces) > 0 {
		return g, sc.expandTraces(add)
	}
	if len(sc.Flows) > 0 {
		w := sc.flowWorkload()
		active := activeFlows(w)
		victims := sc.victimFlows()
		var vw traffic.Workload
		if len(victims) > 0 {
			vw = sc.victimWorkload()
		}
		for _, kind := range sc.Topologies {
			for _, mode := range sc.Modes {
				for _, seed := range sc.Seeds {
					ref := -1
					if len(victims) > 0 {
						// One clean victim-only reference per topology ×
						// qos × seed, shared across that point's fault axes.
						ref = len(g.refCells)
						g.refCells = append(g.refCells, runner.Cell{
							Config: network.Config{
								Kind: kind, Nodes: sc.Nodes,
								QoS:      sc.qosConfig(mode, vw.TotalFlows()),
								Workload: vw, Seed: seed,
							},
							Warmup: sc.Warmup, Measure: sc.Measure,
						})
					}
					for _, rto := range sc.RetryTimeouts {
						for _, mr := range sc.MaxRetriesAxis {
							add(Point{Pattern: "flows", Topology: kind, Mode: mode, Seed: seed,
								Rate: w.OfferedLoad(), Workload: "open",
								RetryTimeout: rto, MaxRetries: mr},
								runner.Cell{Config: network.Config{
									Kind: kind, Nodes: sc.Nodes,
									QoS:      sc.qosConfig(mode, w.TotalFlows()),
									Workload: w, Seed: seed,
									Faults:         sc.faultConfig(rto, mr),
									WatchdogCycles: sc.WatchdogCycles,
								}},
								cellMeta{active: active, victims: victims, ref: ref})
						}
					}
				}
			}
		}
		return g, nil
	}
	for _, pat := range sc.Patterns {
		for _, wmode := range sc.WorkloadModes {
			if wmode == "closed" {
				if err := sc.expandClosed(pat, add); err != nil {
					return nil, err
				}
				continue
			}
			// Workloads depend only on (pattern, rate); Dest pickers are
			// stateless and safe to share across the cells of the
			// topology × mode × seed fan-out.
			ws := make([]traffic.Workload, len(sc.Rates))
			actives := make([][]noc.FlowID, len(sc.Rates))
			for ri, rate := range sc.Rates {
				w, err := sc.workload(pat, rate)
				if err != nil {
					return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
				}
				ws[ri] = w
				actives[ri] = activeFlows(w)
			}
			for _, kind := range sc.Topologies {
				for _, mode := range sc.Modes {
					for _, seed := range sc.Seeds {
						for ri, rate := range sc.Rates {
							for _, rto := range sc.RetryTimeouts {
								for _, mr := range sc.MaxRetriesAxis {
									add(Point{Pattern: pat, Topology: kind, Mode: mode, Seed: seed,
										Rate: rate, Workload: "open",
										RetryTimeout: rto, MaxRetries: mr},
										runner.Cell{Config: network.Config{
											Kind: kind, Nodes: sc.Nodes,
											QoS:      sc.qosConfig(mode, ws[ri].TotalFlows()),
											Workload: ws[ri], Seed: seed,
											Faults:         sc.faultConfig(rto, mr),
											WatchdogCycles: sc.WatchdogCycles,
										}},
										cellMeta{active: actives[ri]})
								}
							}
						}
					}
				}
			}
		}
	}
	return g, nil
}

// expandClosed appends the closed-loop cells of one pattern: topology ×
// qos × seed × outstanding × think_time, each with a Setup that attaches
// a fresh client controller to the cell's reset network.
func (sc *Scenario) expandClosed(patName string, add func(Point, runner.Cell, cellMeta)) error {
	pattern, err := sc.pattern(patName)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	w := workload.ClientWorkload("closed-"+patName, sc.Nodes)
	for _, kind := range sc.Topologies {
		for _, mode := range sc.Modes {
			for _, seed := range sc.Seeds {
				for _, out := range sc.Outstanding {
					for _, think := range sc.ThinkTimes {
						ccfg := workload.ClientConfig{
							Outstanding: out, ThinkMean: think,
							Pattern: pattern, Seed: seed,
							RequestFlits: sc.RequestFlits, ReplyFlits: sc.ReplyFlits,
						}
						add(Point{Pattern: patName, Topology: kind, Mode: mode, Seed: seed,
							Workload: "closed", Outstanding: out, Think: think},
							runner.Cell{
								Config: network.Config{
									Kind: kind, Nodes: sc.Nodes,
									QoS:      sc.qosConfig(mode, w.TotalFlows()),
									Workload: w, Seed: seed,
								},
								Setup: func(n *network.Network) any {
									ct, err := workload.NewController(n, ccfg)
									if err != nil {
										panic(err)
									}
									return ct
								},
							},
							cellMeta{closed: true})
					}
				}
			}
		}
	}
	return nil
}

// expandTraces appends the replay cells: trace × topology × qos × seed,
// each replaying the decoded injection stream verbatim. Relative trace
// paths resolve against the scenario file's directory.
func (sc *Scenario) expandTraces(add func(Point, runner.Cell, cellMeta)) error {
	for _, trPath := range sc.Traces {
		path := trPath
		if !filepath.IsAbs(path) && sc.baseDir != "" {
			path = filepath.Join(sc.baseDir, path)
		}
		tr, err := workload.ReadTraceFile(path)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		if tr.Header.Nodes != sc.Nodes {
			return fmt.Errorf("scenario %s: trace %s recorded a %d-node column, scenario has %d",
				sc.Name, trPath, tr.Header.Nodes, sc.Nodes)
		}
		label := "replay:" + strings.TrimSuffix(filepath.Base(trPath), filepath.Ext(trPath))
		w, err := tr.Workload(label)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		active := activeFlows(w)
		for _, kind := range sc.Topologies {
			for _, mode := range sc.Modes {
				for _, seed := range sc.Seeds {
					add(Point{Pattern: "trace", Topology: kind, Mode: mode, Seed: seed, Workload: label},
						runner.Cell{Config: network.Config{
							Kind: kind, Nodes: sc.Nodes,
							QoS:      sc.qosConfig(mode, w.TotalFlows()),
							Workload: w, Seed: seed,
						}},
						cellMeta{active: active, trace: path})
				}
			}
		}
	}
	return nil
}

// faultConfig assembles one cell's fault configuration: the scenario's
// shared windows plus the cell's recovery axes.
func (sc *Scenario) faultConfig(rto sim.Cycle, mr int) network.FaultConfig {
	return network.FaultConfig{Windows: sc.FaultWindows, RetryTimeout: rto, MaxRetries: mr}
}

// Size returns the number of grid cells.
func (g *Grid) Size() int { return len(g.cells) }

// Cell returns a copy of grid cell i — the runner cell the sweep would
// execute — for drivers that run cells individually (noctool trace
// record).
func (g *Grid) Cell(i int) runner.Cell { return g.cells[i] }

// RunOpts carries the runtime knobs that never change results: worker
// count (bit-identical for every value) and the idle-skip proof toggle.
type RunOpts struct {
	Workers         int
	DisableIdleSkip bool
	// OnCell, when non-nil, observes every finished visible cell as it
	// lands — the live accounting feed for progress lines and the sweep
	// metrics endpoint. It fires on worker goroutines (make it
	// concurrency-safe) and never changes results.
	OnCell func(CellEvent)
}

// CellEvent is one live accounting record: a visible cell finished —
// executed, served from cache, failed, or skipped by cancellation.
type CellEvent struct {
	// Cell indexes the grid point.
	Cell int
	// Exactly one of Cached/Failed/Skipped is set for non-executed
	// outcomes; all false means the cell executed successfully.
	Cached  bool
	Failed  bool
	Skipped bool
	// Attempts/Wall/Cycles describe the run that produced the row
	// (zero for skipped cells); Worker is the runner slot that executed
	// it (-1 for cache hits).
	Attempts int
	Wall     time.Duration
	Cycles   int64
	Worker   int
}

// Result is the measured outcome of one grid point.
type Result struct {
	Point
	// MeanLatency and P99Latency are delivered-packet latencies in
	// cycles, measured from generation (saturation shows as source
	// queueing, the hockey stick).
	MeanLatency float64
	P99Latency  float64
	// Accepted is delivered flits per cycle network-wide.
	Accepted float64
	// PreemptionPct is the preemption event rate over delivered packets.
	PreemptionPct float64
	// Delivered counts delivered packets in the measurement window.
	Delivered int64
	// End is the cycle at the end of the measurement window.
	End sim.Cycle
	// Throughput fairness dispersion, Table-2 style: min/max/stddev of
	// per-unit throughput as percentages of its mean, where the unit is
	// a flow's delivered flits (open/flows/replay cells) or a client's
	// completed requests (closed cells).
	TputMinPct    float64
	TputMaxPct    float64
	TputStdDevPct float64
	// Closed-loop metrics (zero elsewhere): completed round trips and
	// their latency distribution over the measurement window.
	Completed int64
	MeanRTT   float64
	P99RTT    float64
	// Robustness columns: the delivered fraction (1.0 on a healthy run),
	// timeout-driven end-to-end retransmissions, packets abandoned for
	// good, and the mean end-to-end latency of packets that needed at
	// least one retransmission (0 when none did).
	DeliveredFraction float64
	Retries           int64
	Drops             int64
	MeanRecovery      float64
	// VictimSlowdown is the victim flows' mean-latency inflation versus
	// the hidden victim-only reference cell (0 when the scenario declares
	// no victim roles, or when either side delivered nothing).
	VictimSlowdown float64
	// Wall is the wall-clock time the cell's successful run spent
	// simulating. Cache-served rows report the wall-clock of the run that
	// produced them. CyclesPerSec is simulated cycles per wall second
	// (End / Wall) — the throughput the wall-clock buys.
	Wall         time.Duration
	CyclesPerSec float64
	// Error reports a cell that failed on every attempt (tripped
	// watchdog, failed invariant audit, invalid configuration, missed
	// wall-clock deadline) or was skipped by a cancelled sweep; the
	// metric columns of a failed row are zero.
	Error string
	// Attempts is how many times the cell executed (1 normally, more
	// after retries, 0 when cancellation skipped it). Cache-served rows
	// report the attempts of the run that produced them.
	Attempts int
	// Timeline is the cell's in-run telemetry record — non-nil only when
	// the scenario declares a [telemetry] table and the cell actually
	// executed this process (cache-served rows carry none; the knobs are
	// display-only and excluded from cache keys). It never enters the
	// CSV/JSON row columns — the timeline emitters render it.
	Timeline *telemetry.Timeline
}

// Run executes every cell across the parallel runner and collects the
// results in grid order — deterministic and bit-identical for any worker
// count, with or without idle skipping. Hidden victim-only reference
// cells ride the same pool after the visible grid. A cell that fails on
// every runner attempt (tripped watchdog, failed audit) yields a row with
// its Error set and the rest of the grid intact.
func (g *Grid) Run(opts RunOpts) []Result {
	cells := make([]runner.Cell, 0, len(g.cells)+len(g.refCells))
	cells = append(cells, g.cells...)
	cells = append(cells, g.refCells...)
	for i := range cells {
		cells[i].Config.DisableIdleSkip = opts.DisableIdleSkip
	}
	ropts := runner.Options{Workers: opts.Workers, Retries: 1}
	if opts.OnCell != nil {
		onCell := opts.OnCell
		nvis := len(g.cells)
		ropts.OnResult = func(i int, r *runner.Result) {
			// Hidden victim-reference cells stay out of the accounting.
			if i < nvis {
				onCell(cellEventOf(i, r))
			}
		}
	}
	res := runner.RunCellsCtx(context.Background(), cells, ropts)
	refRes := res[len(g.cells):]
	out := make([]Result, len(g.cells))
	for i := range res[:len(g.cells)] {
		base := 0.0
		if m := g.meta[i]; len(m.victims) > 0 && !refRes[m.ref].Failed() {
			base = victimMeanLatency(refRes[m.ref].Stats, m.victims)
		}
		out[i] = g.row(i, &res[i], base)
	}
	return out
}

// cellEventOf derives the live accounting record of one finished cell
// from its runner result.
func cellEventOf(i int, r *runner.Result) CellEvent {
	ev := CellEvent{Cell: i, Attempts: r.Attempts, Wall: r.Elapsed, Cycles: int64(r.End), Worker: r.Worker}
	if r.Err != nil {
		if errors.Is(r.Err, runner.ErrSkipped) {
			ev.Skipped = true
		} else {
			ev.Failed = true
		}
	}
	return ev
}

// row computes the result row of grid point i from its runner result and
// the victim-reference latency baseline (0 when the point has no victims
// or the reference failed). It is the single row-derivation path shared
// by Run and the durable sweep, so cached and freshly-computed rows can
// never drift.
func (g *Grid) row(i int, r *runner.Result, base float64) Result {
	out := Result{Point: g.Points[i], Attempts: r.Attempts}
	if r.Failed() {
		out.Error = r.Err.Error()
		return out
	}
	aux := r.Aux
	if ca, ok := aux.(*cellAux); ok {
		out.Timeline = ca.sampler.Timeline()
		aux = ca.inner
	}
	st := r.Stats
	out.MeanLatency = st.MeanLatency()
	out.P99Latency = float64(st.Latencies.Percentile(99))
	out.Accepted = st.AcceptedFlitRate(r.End)
	out.PreemptionPct = st.PreemptionPacketRate()
	out.Delivered = st.TotalDelivered
	out.End = r.End
	out.DeliveredFraction = st.DeliveredFraction()
	out.Retries = st.TotalRetries
	out.Drops = st.TotalDropped
	out.MeanRecovery = st.MeanRecoveryLatency()
	out.Wall = r.Elapsed
	if r.Elapsed > 0 {
		out.CyclesPerSec = float64(out.End) / r.Elapsed.Seconds()
	}
	m := g.meta[i]
	var summary stats.Summary
	if m.closed {
		ct := aux.(*workload.Controller)
		summary = stats.Summarize(ct.RT.PerClient())
		out.Completed = ct.RT.TotalCompleted()
		out.MeanRTT = ct.RT.MeanRTT()
		out.P99RTT = float64(ct.RT.Latencies.Percentile(99))
	} else {
		flits := st.FlitsByFlow()
		vals := make([]float64, 0, len(m.active))
		for _, f := range m.active {
			vals = append(vals, float64(flits[f]))
		}
		summary = stats.Summarize(vals)
	}
	out.TputMinPct = summary.MinPctOfMean()
	out.TputMaxPct = summary.MaxPctOfMean()
	out.TputStdDevPct = summary.StdDevPctOfMean()
	if len(m.victims) > 0 {
		if mean := victimMeanLatency(st, m.victims); base > 0 && mean > 0 {
			out.VictimSlowdown = mean / base
		}
	}
	return out
}

// victimMeanLatency averages delivered-packet latency over the victim
// flows of one cell.
func victimMeanLatency(st *stats.Collector, victims []noc.FlowID) float64 {
	var pkts, lat int64
	for _, f := range victims {
		pkts += st.DeliveredPackets[f]
		lat += st.LatencySumByFlow[f]
	}
	if pkts == 0 {
		return 0
	}
	return float64(lat) / float64(pkts)
}

// CSV renders results as one row per grid point. Alongside the latency
// and throughput aggregates, every row carries the Table-2-style fairness
// dispersion of its cell (min/max/stddev of per-flow — or per-client —
// throughput as % of mean), and closed-loop rows add round-trip columns.
func CSV(name string, results []Result) string {
	var b strings.Builder
	b.WriteString("scenario,workload,pattern,topology,qos,seed,rate,outstanding,think_time,retry_timeout,max_retries," +
		"mean_latency_cycles,p99_latency_cycles,accepted_flits_per_cycle,preemption_pct,delivered_packets," +
		"tput_min_pct_of_mean,tput_max_pct_of_mean,tput_stddev_pct_of_mean," +
		"completed_requests,mean_rtt_cycles,p99_rtt_cycles," +
		"delivered_fraction,retries,drops,mean_recovery_cycles,victim_slowdown,wall_ms,cycles_per_sec,attempts,error\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%d,%.4f,%d,%.1f,%d,%d,%.3f,%.0f,%.4f,%.4f,%d,%.2f,%.2f,%.2f,%d,%.3f,%.0f,%.6f,%d,%d,%.1f,%.3f,%.1f,%.0f,%d,%s\n",
			csvEscape(name), csvEscape(r.Workload), csvEscape(r.Pattern), csvEscape(r.Topology.String()), csvEscape(r.Mode.String()),
			r.Seed, r.Rate, r.Outstanding, r.Think, r.RetryTimeout, r.MaxRetries,
			r.MeanLatency, r.P99Latency, r.Accepted, r.PreemptionPct, r.Delivered,
			r.TputMinPct, r.TputMaxPct, r.TputStdDevPct,
			r.Completed, r.MeanRTT, r.P99RTT,
			r.DeliveredFraction, r.Retries, r.Drops, r.MeanRecovery, r.VictimSlowdown,
			float64(r.Wall)/float64(time.Millisecond), r.CyclesPerSec, r.Attempts, csvEscape(r.Error))
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// resultJSON is the machine-readable per-point record of JSONReport.
type resultJSON struct {
	Workload          string  `json:"workload"`
	Pattern           string  `json:"pattern"`
	Topology          string  `json:"topology"`
	QoS               string  `json:"qos"`
	Seed              uint64  `json:"seed"`
	Rate              float64 `json:"rate"`
	Outstanding       int     `json:"outstanding,omitempty"`
	Think             float64 `json:"think_time,omitempty"`
	RetryTimeout      int64   `json:"retry_timeout,omitempty"`
	MaxRetries        int     `json:"max_retries,omitempty"`
	MeanLatency       float64 `json:"mean_latency_cycles"`
	P99Latency        float64 `json:"p99_latency_cycles"`
	Accepted          float64 `json:"accepted_flits_per_cycle"`
	PreemptionPct     float64 `json:"preemption_pct"`
	Delivered         int64   `json:"delivered_packets"`
	TputMinPct        float64 `json:"tput_min_pct_of_mean"`
	TputMaxPct        float64 `json:"tput_max_pct_of_mean"`
	TputStdDevPct     float64 `json:"tput_stddev_pct_of_mean"`
	Completed         int64   `json:"completed_requests,omitempty"`
	MeanRTT           float64 `json:"mean_rtt_cycles,omitempty"`
	P99RTT            float64 `json:"p99_rtt_cycles,omitempty"`
	DeliveredFraction float64 `json:"delivered_fraction"`
	Retries           int64   `json:"retries,omitempty"`
	Drops             int64   `json:"drops,omitempty"`
	MeanRecovery      float64 `json:"mean_recovery_cycles,omitempty"`
	VictimSlowdown    float64 `json:"victim_slowdown,omitempty"`
	WallMS            float64 `json:"wall_ms,omitempty"`
	CyclesPerSec      float64 `json:"cycles_per_sec,omitempty"`
	Attempts          int     `json:"attempts"`
	Error             string  `json:"error,omitempty"`
}

// JSONReport marshals a sweep's results.
func JSONReport(name string, results []Result) ([]byte, error) {
	rows := make([]resultJSON, len(results))
	for i, r := range results {
		rows[i] = resultJSON{
			Workload: r.Workload, Pattern: r.Pattern, Topology: r.Topology.String(), QoS: r.Mode.String(),
			Seed: r.Seed, Rate: r.Rate, Outstanding: r.Outstanding, Think: r.Think,
			RetryTimeout: int64(r.RetryTimeout), MaxRetries: r.MaxRetries,
			MeanLatency: r.MeanLatency, P99Latency: r.P99Latency,
			Accepted: r.Accepted, PreemptionPct: r.PreemptionPct, Delivered: r.Delivered,
			TputMinPct: r.TputMinPct, TputMaxPct: r.TputMaxPct, TputStdDevPct: r.TputStdDevPct,
			Completed: r.Completed, MeanRTT: r.MeanRTT, P99RTT: r.P99RTT,
			DeliveredFraction: r.DeliveredFraction, Retries: r.Retries, Drops: r.Drops,
			MeanRecovery: r.MeanRecovery, VictimSlowdown: r.VictimSlowdown,
			WallMS:       float64(r.Wall) / float64(time.Millisecond),
			CyclesPerSec: r.CyclesPerSec,
			Attempts:     r.Attempts, Error: r.Error,
		}
	}
	blob, err := json.MarshalIndent(struct {
		Scenario string       `json:"scenario"`
		Results  []resultJSON `json:"results"`
	}{Scenario: name, Results: rows}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// Render prints results as an aligned table, one row per point. Open and
// replay rows show offered rate and packet latency; closed rows show the
// window/think axes and round-trip metrics; every row shows its fairness
// dispersion (stddev of per-flow or per-client throughput, % of mean).
func Render(name string, results []Result) string {
	var b strings.Builder
	title := fmt.Sprintf("Sweep: %s (%d cells)", name, len(results))
	b.WriteString(title + "\n" + strings.Repeat("-", len(title)) + "\n")
	fmt.Fprintf(&b, "%-16s %-14s %-9s %-14s %10s %11s %10s %9s %9s %9s %8s %8s %7s %9s %8s\n",
		"workload", "pattern", "topology", "qos", "seed", "rate/window", "latency", "p99", "accepted", "preempt", "fair-sd", "dlv", "vslow", "wall-ms", "Mcyc/s")
	for _, r := range results {
		axis := fmt.Sprintf("%6.2f%%", r.Rate*100)
		lat, p99 := r.MeanLatency, r.P99Latency
		if r.Workload == "closed" {
			axis = fmt.Sprintf("w%d/t%.0f", r.Outstanding, r.Think)
			lat, p99 = r.MeanRTT, r.P99RTT
		}
		if r.Error != "" {
			fmt.Fprintf(&b, "%-16s %-14s %-9s %-14s %10d %11s  FAILED (%d attempts): %s\n",
				r.Workload, r.Pattern, r.Topology, r.Mode, r.Seed, axis, r.Attempts, r.Error)
			continue
		}
		vslow := "-"
		if r.VictimSlowdown > 0 {
			vslow = fmt.Sprintf("%.2fx", r.VictimSlowdown)
		}
		fmt.Fprintf(&b, "%-16s %-14s %-9s %-14s %10d %11s %10.1f %9.0f %9.3f %8.2f%% %7.2f%% %7.2f%% %7s %9.1f %8.2f\n",
			r.Workload, r.Pattern, r.Topology, r.Mode, r.Seed, axis,
			lat, p99, r.Accepted, r.PreemptionPct, r.TputStdDevPct,
			100*r.DeliveredFraction, vslow,
			float64(r.Wall)/float64(time.Millisecond), r.CyclesPerSec/1e6)
	}
	return b.String()
}
