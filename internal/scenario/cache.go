package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"tanoq/internal/network"
	"tanoq/internal/runner"
	"tanoq/internal/sim"
	"tanoq/internal/store"
)

// This file makes sweep grids durable: every cell gets a content address
// derived from its complete semantic description, and RunDurable runs a
// grid through the result cache — serving previously-computed rows as
// hits, executing only the misses, checkpointing each row the moment it
// exists, and surviving cancellation with partial results.
//
// What goes into a key is exactly what can change a result: topology,
// node count, QoS mode and parameter overrides, seed, warmup/measure
// schedule, the full workload description (pattern+rate shaping, the
// explicit flow list with roles, the closed-loop axes, or a replay
// trace's content digest), the fault schedule and recovery axes, and
// the engine version stamp. What stays out is exactly what cannot:
// worker count and the idle-skip toggle (results are bit-identical
// either way — a tested engine invariant), deadlines, retry budgets,
// the scenario's display name, and the whole [telemetry] table (probes
// are display-only by the same tested invariant — a probed cell's row
// is bit-identical to an unprobed one's, so the knobs never enter
// cellCanon and cache-served rows simply carry no timeline). Because the simulator is deterministic,
// a cache hit is indistinguishable from a re-run; the float64 metric
// fields round-trip JSON exactly, so a resumed sweep renders its table
// bit-identically to an uninterrupted one.

// canonFormat versions the canonical cell encoding itself; bumping it
// (on any change to the canon structs) retires every existing key.
const canonFormat = "tanoq-cell/v1"

// cellCanon is the canonical description of one simulation cell. Fields
// marshal in declaration order, giving stable bytes for hashing; none
// of them is omitempty, so a zero axis is encoded identically every
// time rather than appearing and disappearing.
type cellCanon struct {
	Format   string        `json:"format"`
	Engine   string        `json:"engine"`
	Topology string        `json:"topology"`
	Nodes    int           `json:"nodes"`
	QoS      qosCanon      `json:"qos"`
	Seed     uint64        `json:"seed"`
	Warmup   int           `json:"warmup"`
	Measure  int           `json:"measure"`
	Workload workloadCanon `json:"workload"`
	Faults   faultsCanon   `json:"faults"`
}

type qosCanon struct {
	Mode          string `json:"mode"`
	FrameCycles   int64  `json:"frame_cycles"`
	WindowPackets int    `json:"window_packets"`
	QuantumFlits  int    `json:"quantum_flits"`
	MarginClasses int    `json:"margin_classes"`
}

// workloadCanon covers every workload class one tagged struct: Kind
// selects which fields are meaningful ("open", "flows", "closed",
// "replay", "victim-ref"); the rest stay zero and therefore inert.
type workloadCanon struct {
	Kind string `json:"kind"`
	// Open-pattern fields (also shaping for flows and victim-ref).
	Pattern         string    `json:"pattern"`
	Rate            float64   `json:"rate"`
	RequestFraction float64   `json:"request_fraction"`
	BurstOn         float64   `json:"burst_on"`
	BurstOff        float64   `json:"burst_off"`
	HotspotWeights  []float64 `json:"hotspot_weights"`
	StopAt          int64     `json:"stop_at"`
	// Explicit-flows field (flows and victim-ref kinds). Roles ride
	// along: a victim role changes the row (the slowdown column), so it
	// must change the key.
	Flows []flowCanon `json:"flows"`
	// Closed-loop fields.
	Outstanding  int     `json:"outstanding"`
	Think        float64 `json:"think"`
	RequestFlits int     `json:"request_flits"`
	ReplyFlits   int     `json:"reply_flits"`
	// Replay fields: the label and the SHA-256 of the trace file's
	// bytes — editing a trace in place retires its cached rows.
	Trace       string `json:"trace"`
	TraceSHA256 string `json:"trace_sha256"`
}

type flowCanon struct {
	Node     int     `json:"node"`
	Injector int     `json:"injector"`
	Rate     float64 `json:"rate"`
	Dest     int     `json:"dest"`
	StopAt   int64   `json:"stop_at"`
	Role     string  `json:"role"`
}

type faultsCanon struct {
	Windows      []windowCanon `json:"windows"`
	RetryTimeout int64         `json:"retry_timeout"`
	MaxRetries   int           `json:"max_retries"`
	Watchdog     int64         `json:"watchdog"`
}

type windowCanon struct {
	Kind  string `json:"kind"`
	Port  int    `json:"port"`
	Node  int    `json:"node"`
	From  int64  `json:"from"`
	Until int64  `json:"until"`
}

// qosCanonOf canonizes the scenario's QoS description for one mode: the
// mode plus the raw parameter overrides (0 = engine default; the engine
// version stamp covers default changes).
func (sc *Scenario) qosCanonOf(p *Point) qosCanon {
	return qosCanon{
		Mode:          p.Mode.String(),
		FrameCycles:   int64(sc.FrameCycles),
		WindowPackets: sc.WindowPackets,
		QuantumFlits:  sc.QuantumFlits,
		MarginClasses: sc.MarginClasses,
	}
}

func (sc *Scenario) flowCanons(flows []FlowSpec) []flowCanon {
	out := make([]flowCanon, len(flows))
	for i, f := range flows {
		out[i] = flowCanon{Node: f.Node, Injector: f.Injector, Rate: f.Rate,
			Dest: f.Dest, StopAt: int64(f.StopAt), Role: f.Role}
	}
	return out
}

func (sc *Scenario) faultsCanonOf(p *Point) faultsCanon {
	fc := faultsCanon{
		Windows:      make([]windowCanon, len(sc.FaultWindows)),
		RetryTimeout: int64(p.RetryTimeout),
		MaxRetries:   p.MaxRetries,
		Watchdog:     int64(sc.WatchdogCycles),
	}
	for i, w := range sc.FaultWindows {
		fc.Windows[i] = windowCanon{Kind: w.Kind.String(), Port: w.Port,
			Node: w.Node, From: int64(w.From), Until: int64(w.Until)}
	}
	return fc
}

// canonOf builds the canonical description of visible grid cell i.
// traceDigest memoizes trace-file hashing across the cells sharing one
// trace.
func (g *Grid) canonOf(i int, traceDigest map[string]string) (cellCanon, error) {
	sc, p, m := g.Scenario, &g.Points[i], &g.meta[i]
	c := cellCanon{
		Format:   canonFormat,
		Engine:   network.EngineVersion(),
		Topology: p.Topology.String(),
		Nodes:    sc.Nodes,
		QoS:      sc.qosCanonOf(p),
		Seed:     p.Seed,
		Warmup:   sc.Warmup,
		Measure:  sc.Measure,
		Faults:   sc.faultsCanonOf(p),
	}
	w := &c.Workload
	w.RequestFraction = sc.RequestFraction
	w.BurstOn, w.BurstOff = sc.Burst.MeanOn, sc.Burst.MeanOff
	w.StopAt = int64(sc.StopAt)
	switch {
	case m.trace != "":
		w.Kind = "replay"
		w.Trace = p.Workload
		digest, ok := traceDigest[m.trace]
		if !ok {
			blob, err := os.ReadFile(m.trace)
			if err != nil {
				return cellCanon{}, fmt.Errorf("scenario %s: digest trace: %w", sc.Name, err)
			}
			sum := sha256.Sum256(blob)
			digest = hex.EncodeToString(sum[:])
			traceDigest[m.trace] = digest
		}
		w.TraceSHA256 = digest
	case m.closed:
		w.Kind = "closed"
		w.Pattern = p.Pattern
		w.Outstanding = p.Outstanding
		w.Think = p.Think
		w.RequestFlits = sc.RequestFlits
		w.ReplyFlits = sc.ReplyFlits
	case len(sc.Flows) > 0:
		w.Kind = "flows"
		w.Flows = sc.flowCanons(sc.Flows)
	default:
		w.Kind = "open"
		w.Pattern = p.Pattern
		w.Rate = p.Rate
		w.HotspotWeights = sc.HotspotWeights
	}
	return c, nil
}

// refCanonOf builds the canonical description of hidden victim-only
// reference cell r. The reference grid index identifies topology, mode
// and seed through the refCells expansion order, so the canon is built
// straight from its runner cell plus the victim flow list.
func (g *Grid) refCanonOf(r int) cellCanon {
	sc := g.Scenario
	cell := &g.refCells[r]
	var victims []FlowSpec
	for _, f := range sc.Flows {
		if f.Role == "victim" {
			victims = append(victims, f)
		}
	}
	return cellCanon{
		Format:   canonFormat,
		Engine:   network.EngineVersion(),
		Topology: cell.Config.Kind.String(),
		Nodes:    sc.Nodes,
		QoS: qosCanon{Mode: cell.Config.QoS.Mode.String(),
			FrameCycles: int64(sc.FrameCycles), WindowPackets: sc.WindowPackets,
			QuantumFlits: sc.QuantumFlits, MarginClasses: sc.MarginClasses},
		Seed:    cell.Config.Seed,
		Warmup:  sc.Warmup,
		Measure: sc.Measure,
		Workload: workloadCanon{
			Kind:            "victim-ref",
			RequestFraction: sc.RequestFraction,
			BurstOn:         sc.Burst.MeanOn,
			BurstOff:        sc.Burst.MeanOff,
			StopAt:          int64(sc.StopAt),
			Flows:           sc.flowCanons(victims),
		},
	}
}

// keyOf content-addresses a canon.
func canonKey(c cellCanon) (string, error) {
	blob, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("scenario: canonical encode: %w", err)
	}
	return store.KeyOf(blob), nil
}

// Keys returns the content-address of every visible grid cell, in grid
// order. Two grids whose cells describe the same simulations — same
// scenario semantics under any file-key ordering, spelling, or display
// name — produce identical keys; any semantic difference produces
// different ones.
func (g *Grid) Keys() ([]string, error) {
	keys := make([]string, len(g.cells))
	digests := map[string]string{}
	for i := range g.cells {
		c, err := g.canonOf(i, digests)
		if err != nil {
			return nil, err
		}
		if keys[i], err = canonKey(c); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// refKeys returns the content-address of every hidden victim-reference
// cell.
func (g *Grid) refKeys() ([]string, error) {
	keys := make([]string, len(g.refCells))
	for r := range g.refCells {
		var err error
		if keys[r], err = canonKey(g.refCanonOf(r)); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// cachedRow is a visible cell's cache payload: every measured column of
// its Result plus the attempts that produced it. The Point is not
// stored — it is re-derived from the grid on every read, so a cached
// row can never carry a stale label.
type cachedRow struct {
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
	// WallNS is the wall-clock of the run that produced the row —
	// informational provenance, never compared (cache verification
	// excludes it; see verifyHits).
	WallNS int64 `json:"wall_ns"`
}

// refPayload is a victim-reference cell's cache payload: the baseline
// the slowdown column divides by.
type refPayload struct {
	VictimMean float64 `json:"victim_mean"`
}

func rowToPayload(r *Result) cachedRow {
	return cachedRow{
		MeanLatency: r.MeanLatency, P99Latency: r.P99Latency,
		Accepted: r.Accepted, PreemptionPct: r.PreemptionPct,
		Delivered: r.Delivered, End: int64(r.End),
		TputMinPct: r.TputMinPct, TputMaxPct: r.TputMaxPct, TputStdDevPct: r.TputStdDevPct,
		Completed: r.Completed, MeanRTT: r.MeanRTT, P99RTT: r.P99RTT,
		DeliveredFraction: r.DeliveredFraction, Retries: r.Retries,
		Drops: r.Drops, MeanRecovery: r.MeanRecovery,
		VictimSlowdown: r.VictimSlowdown, Attempts: r.Attempts,
		WallNS: int64(r.Wall),
	}
}

func payloadToRow(p Point, c *cachedRow) Result {
	cps := 0.0
	if c.WallNS > 0 {
		cps = float64(c.End) / (float64(c.WallNS) / 1e9)
	}
	return Result{
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

// DurableOpts tunes RunDurable. The zero value behaves like Grid.Run:
// no cache, no deadline, the historical one-retry budget.
type DurableOpts struct {
	RunOpts
	// Store, when non-nil, memoizes result rows: hits are served without
	// simulating, misses are executed and written back. Failed cells are
	// never cached — a transient failure re-runs on the next attempt.
	Store *store.Store
	// Journal, when non-nil, records each completed cell's key as its
	// row is checkpointed (after the cache write, so every journaled key
	// is backed by a durable entry).
	Journal *store.Journal
	// Deadline, Retries and Backoff are passed through to the runner for
	// every executed cell (Retries: 0 = the historical single retry,
	// negative = none).
	Deadline time.Duration
	Retries  int
	Backoff  time.Duration
	// VerifySample, when positive, re-executes up to that many evenly-
	// spaced cache hits and compares the recomputed rows against the
	// cached ones; mismatches are reported on DurableReport.VerifyBad.
	VerifySample int
}

// DurableReport is RunDurable's outcome: the rows in grid order plus
// the execution accounting a resumable sweep needs to report.
type DurableReport struct {
	Results []Result
	// Hits counts rows served from the cache; Executed counts visible
	// cells actually simulated (0 on a fully-cached re-run); Failed
	// counts executed cells whose every attempt died (their rows carry
	// Error); Skipped counts cells abandoned by cancellation.
	Hits     int
	Executed int
	Failed   int
	Skipped  int
	// Interrupted is set when cancellation cut the sweep short.
	Interrupted bool
	// Verified counts re-executed hits that matched their cached rows;
	// VerifyBad describes the ones that did not.
	Verified  int
	VerifyBad []string
}

// skippedError marks rows of cells a cancelled sweep never ran.
const skippedError = "skipped: sweep cancelled"

// RunDurable executes the grid through the result cache. Rows whose
// content address hits the store are served without simulating; the
// misses run on the parallel runner with the configured deadlines and
// retry budgets, and each finished row is written back and journaled
// the moment it exists, so an interrupted process loses at most its
// in-flight cells. Hidden victim-reference cells are themselves cached
// and only executed when a missed cell needs their baseline — a fully
// cached sweep executes zero simulations. Once ctx is cancelled no new
// cells are issued; in-flight cells drain and checkpoint, and the
// never-issued ones come back as rows marked skipped.
func (g *Grid) RunDurable(ctx context.Context, opts DurableOpts) (*DurableReport, error) {
	rep := &DurableReport{Results: make([]Result, len(g.cells))}
	keys, err := g.Keys()
	if err != nil {
		return nil, err
	}

	// Phase 1: serve hits, collect misses.
	missed := make([]int, 0, len(g.cells))
	hitIdx := make([]int, 0, len(g.cells))
	for i := range g.cells {
		if opts.Store != nil {
			if blob, ok := opts.Store.Get(keys[i]); ok {
				var row cachedRow
				if json.Unmarshal(blob, &row) == nil {
					rep.Results[i] = payloadToRow(g.Points[i], &row)
					rep.Hits++
					hitIdx = append(hitIdx, i)
					if opts.OnCell != nil {
						opts.OnCell(CellEvent{Cell: i, Cached: true, Worker: -1,
							Attempts: row.Attempts, Wall: time.Duration(row.WallNS), Cycles: row.End})
					}
					continue
				}
			}
		}
		missed = append(missed, i)
	}

	// Phase 2: baselines. A missed cell with victims needs its reference
	// cell's mean latency; references resolve through the cache first and
	// only the unresolved ones simulate.
	refBase := make(map[int]float64)
	if err := g.resolveRefs(ctx, &opts, missed, refBase); err != nil {
		return nil, err
	}

	// Phase 3: run the misses, checkpointing each row as it lands.
	ropts := runner.Options{
		Workers:  opts.Workers,
		Retries:  opts.Retries,
		Backoff:  opts.Backoff,
		Deadline: opts.Deadline,
	}
	if ropts.Retries == 0 {
		ropts.Retries = 1 // Grid.Run's historical budget
	}
	cells := make([]runner.Cell, len(missed))
	for mi, i := range missed {
		cells[mi] = g.cells[i]
		cells[mi].Config.DisableIdleSkip = opts.DisableIdleSkip
	}
	var (
		ckMu          sync.Mutex
		checkpointErr error
	)
	ropts.OnResult = func(mi int, r *runner.Result) {
		i := missed[mi]
		row := g.row(i, r, refBase[g.meta[i].ref])
		rep.Results[i] = row
		if opts.OnCell != nil {
			opts.OnCell(cellEventOf(i, r))
		}
		if row.Error != "" || opts.Store == nil {
			return // failures re-run next time; never cache them
		}
		blob, _ := json.Marshal(rowToPayload(&row))
		err := opts.Store.Put(keys[i], blob)
		if err == nil && opts.Journal != nil {
			err = opts.Journal.Record(keys[i])
		}
		if err != nil {
			ckMu.Lock()
			if checkpointErr == nil {
				checkpointErr = err
			}
			ckMu.Unlock()
		}
	}
	res := runner.RunCellsCtx(ctx, cells, ropts)
	for mi, i := range missed {
		if res[mi].Err == runner.ErrSkipped {
			rep.Results[i] = Result{Point: g.Points[i], Error: skippedError}
			rep.Skipped++
			if opts.OnCell != nil {
				opts.OnCell(CellEvent{Cell: i, Skipped: true, Worker: -1})
			}
			continue
		}
		rep.Executed++
		if rep.Results[i].Error != "" {
			rep.Failed++
		}
	}
	rep.Interrupted = rep.Skipped > 0 || ctx.Err() != nil
	if checkpointErr != nil {
		return rep, fmt.Errorf("scenario %s: checkpoint: %w", g.Scenario.Name, checkpointErr)
	}

	// Phase 4: optional hit verification — re-run a sample of served
	// rows and fail loudly on any divergence (a corrupted store, a
	// mis-stamped engine).
	if opts.VerifySample > 0 && len(hitIdx) > 0 && !rep.Interrupted {
		if err := g.verifyHits(ctx, &opts, hitIdx, refBase, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// resolveRefs fills refBase for every reference cell some missed cell
// depends on: from the cache when possible, by simulation otherwise
// (writing the baseline back). A failed reference leaves its baseline
// at zero — dependents report no slowdown, matching Grid.Run.
func (g *Grid) resolveRefs(ctx context.Context, opts *DurableOpts, missed []int, refBase map[int]float64) error {
	needed := map[int]bool{}
	for _, i := range missed {
		if m := &g.meta[i]; len(m.victims) > 0 {
			needed[m.ref] = true
		}
	}
	if len(needed) == 0 {
		return nil
	}
	rkeys, err := g.refKeys()
	if err != nil {
		return err
	}
	var torun []int
	for r := range needed {
		if opts.Store != nil {
			if blob, ok := opts.Store.Get(rkeys[r]); ok {
				var p refPayload
				if json.Unmarshal(blob, &p) == nil {
					refBase[r] = p.VictimMean
					continue
				}
			}
		}
		torun = append(torun, r)
	}
	if len(torun) == 0 {
		return nil
	}
	cells := make([]runner.Cell, len(torun))
	for ti, r := range torun {
		cells[ti] = g.refCells[r]
		cells[ti].Config.DisableIdleSkip = opts.DisableIdleSkip
	}
	ropts := runner.Options{Workers: opts.Workers, Retries: opts.Retries,
		Backoff: opts.Backoff, Deadline: opts.Deadline}
	if ropts.Retries == 0 {
		ropts.Retries = 1
	}
	res := runner.RunCellsCtx(ctx, cells, ropts)
	for ti, r := range torun {
		if res[ti].Failed() {
			continue
		}
		// The victim set is shared by every reference cell (it is the
		// scenario's victim-role flows), so any dependent's meta works.
		base := 0.0
		for _, i := range missed {
			if m := &g.meta[i]; m.ref == r && len(m.victims) > 0 {
				base = victimMeanLatency(res[ti].Stats, m.victims)
				break
			}
		}
		refBase[r] = base
		if opts.Store != nil && base > 0 {
			blob, _ := json.Marshal(refPayload{VictimMean: base})
			if err := opts.Store.Put(rkeys[r], blob); err != nil {
				return fmt.Errorf("scenario %s: checkpoint reference: %w", g.Scenario.Name, err)
			}
		}
	}
	return nil
}

// verifyHits re-executes up to opts.VerifySample evenly-spaced cache
// hits and compares the recomputed rows to the served ones.
func (g *Grid) verifyHits(ctx context.Context, opts *DurableOpts, hitIdx []int, refBase map[int]float64, rep *DurableReport) error {
	sample := hitIdx
	if opts.VerifySample < len(sample) {
		step := len(hitIdx) / opts.VerifySample
		sample = make([]int, 0, opts.VerifySample)
		for k := 0; k < opts.VerifySample; k++ {
			sample = append(sample, hitIdx[k*step])
		}
	}
	// Verification may need baselines the miss path never resolved.
	if err := g.resolveRefs(ctx, opts, sample, refBase); err != nil {
		return err
	}
	cells := make([]runner.Cell, len(sample))
	for si, i := range sample {
		cells[si] = g.cells[i]
		cells[si].Config.DisableIdleSkip = opts.DisableIdleSkip
	}
	res := runner.RunCellsCtx(ctx, cells, runner.Options{Workers: opts.Workers,
		Retries: 1, Deadline: opts.Deadline})
	for si, i := range sample {
		if res[si].Err == runner.ErrSkipped {
			continue
		}
		fresh := g.row(i, &res[si], refBase[g.meta[i].ref])
		served := rep.Results[i]
		// Attempts and wall-clock legitimately differ between the original
		// run and the verification re-run, and only the re-run carries a
		// telemetry timeline (cached rows never do); everything measured
		// must match exactly.
		fresh.Attempts, served.Attempts = 0, 0
		fresh.Wall, served.Wall = 0, 0
		fresh.CyclesPerSec, served.CyclesPerSec = 0, 0
		fresh.Timeline, served.Timeline = nil, nil
		if fresh != served {
			rep.VerifyBad = append(rep.VerifyBad,
				fmt.Sprintf("cell %d (%s/%s/%s seed %d): cached row diverges from re-execution",
					i, g.Points[i].Pattern, g.Points[i].Topology, g.Points[i].Mode, g.Points[i].Seed))
			continue
		}
		rep.Verified++
	}
	return nil
}
