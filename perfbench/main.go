// Command perfbench times `noctool sweep`'s public pipeline — scenario
// resolve, grid expansion, store open, the durable runner, and the CSV,
// JSON and timeline emitters — on three generated grids, checks every
// pass's output, and prints one JSON result line. With --trace 1 it
// also runs the sweep with a span at every layer boundary and reports
// per-layer metrics instead. See README.md for the workloads and the
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minPasses is the least number of passes per run, however short
// --seconds is: a non-default seed is checked by agreement between
// passes, so there must be at least two.
const minPasses = 2

// workRoot holds every file a run writes, inside the checkout.
const workRoot = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload to run: open-saturation, closed-probed or warm-rerun")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the grids' cell seeds derive from it")
	seconds := flag.Int("seconds", 10, "how long to keep repeating passes")
	trace := flag.Int("trace", 0, "1 runs traced passes and reports per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if err == nil {
		err = run(os.Stdout, config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, root: workRoot})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one benchmark run.
type config struct {
	w       workloadSpec
	seed    uint64
	seconds int
	trace   bool
	// tiny shrinks the grids for the benchmark's own tests; pinned
	// digests and counts apply only at full size.
	tiny bool
	// root is the directory the run writes its scratch files and the
	// traced run's spans under.
	root string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run repeats passes of the workload for the configured time, checks
// each, and writes the result line to stdout.
func run(stdout io.Writer, cfg config) error {
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.root, "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintln(os.Stderr, "perfbench:", hostLine())

	input := filepath.Join(dir, cfg.w.name+".json")
	blob, err := cfg.w.scenarioJSON(cfg.seed, cfg.tiny)
	if err != nil {
		return err
	}
	if err := os.WriteFile(input, blob, 0o644); err != nil {
		return err
	}
	chk := newChecker(cfg)
	// Cold workloads get an empty store per pass; warm ones share one
	// store filled before timing starts.
	storeDir := func(k int) string { return filepath.Join(dir, fmt.Sprintf("store-%d", k)) }
	if cfg.w.warm {
		warm := filepath.Join(dir, "store-warm")
		storeDir = func(int) string { return warm }
		fill, err := sweepPass(input, warm)
		if err != nil {
			return fmt.Errorf("fill store: %w", err)
		}
		if fill.failed > 0 || fill.executed != fill.cells {
			return fmt.Errorf("fill store: %d of %d cells executed, %d failed", fill.executed, fill.cells, fill.failed)
		}
	}

	var passes []pass
	var layers []map[string]metric
	var tracedWall []float64
	var lastTraced *tracedPass
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for k := 0; k < minPasses || time.Now().Before(deadline); k++ {
		// Flush earlier writes and deletions first, so the disk's
		// write-back never overlaps a timed pass.
		syscall.Sync()
		p, err := sweepPass(input, storeDir(2*k))
		if err != nil {
			return err
		}
		chk.pass(&p)
		p.rows = nil
		passes = append(passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: wall %.4fs, setup %.6fs, %d cells, %d executed\n",
			k, p.wall.Seconds(), p.setup.Seconds(), p.cells, p.executed)
		if cfg.trace {
			syscall.Sync()
			tp, err := runTraced(fmt.Sprintf("%s-seed%d-pass%d", cfg.w.name, cfg.seed, k), input, storeDir(2*k+1))
			if err != nil {
				return err
			}
			chk.traced(tp)
			layers = append(layers, passLayerMetrics(tp))
			tracedWall = append(tracedWall, tp.wall.Seconds())
			lastTraced = tp
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: traced wall %.4fs\n", k, tp.wall.Seconds())
		}
		if !cfg.w.warm {
			os.RemoveAll(storeDir(2 * k))
			os.RemoveAll(storeDir(2*k + 1))
		}
	}

	// A cell can break more than one check; it still fails only once.
	failed := min(chk.failed, chk.attempted)
	res := result{Correct: failed == 0, Attempted: chk.attempted, Failed: failed}
	if cfg.trace {
		if err := writeSpans(filepath.Join(cfg.root, "perfbench-trace-"+cfg.w.name+".json"), lastTraced); err != nil {
			return err
		}
		res.Metrics = layerMetrics(passes, layers, tracedWall)
		res.Metrics["fail_frac"] = metric{float64(failed) / float64(chk.attempted), "ratio"}
	} else {
		res.Metrics = endToEndMetrics(passes)
	}
	for _, m := range chk.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", m)
	}
	fmt.Fprintln(os.Stderr, "perfbench: rows digest", chk.digest)
	if chk.work != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work counts %+v\n", *chk.work)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// checker applies the correctness checks to every pass of a run.
type checker struct {
	cfg       config
	digest    string
	work      *workCounts
	attempted int
	failed    int
	notes     []string
}

func newChecker(cfg config) *checker {
	c := &checker{cfg: cfg}
	if pin, ok := pinned[cfg.w.name]; ok && cfg.seed == defaultSeed && !cfg.tiny {
		c.digest = pin.digest
		c.work = &pin.work
	}
	return c
}

// fail records bad cells with the reason.
func (c *checker) fail(cells int, format string, args ...any) {
	c.failed += cells
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// matchDigest checks a pass's digest against the pinned one, or for an
// unpinned seed against the first pass of the run.
func (c *checker) matchDigest(kind, got string, cells int) {
	if c.digest == "" {
		c.digest = got
	}
	if got != c.digest {
		c.fail(cells, "%s pass digest %s, want %s", kind, got, c.digest)
	}
}

func (c *checker) pass(p *pass) {
	c.attempted += p.cells
	if p.failed > 0 {
		c.fail(p.failed, "%d cells failed or were skipped", p.failed)
	}
	if c.cfg.w.warm && p.executed > 0 {
		c.fail(p.executed, "warm pass executed %d cells", p.executed)
	}
	c.matchDigest("untraced", p.digest, p.cells-p.failed)
}

func (c *checker) traced(tp *tracedPass) {
	c.attempted += tp.cells
	if tp.failed > 0 {
		c.fail(tp.failed, "%d traced cells failed", tp.failed)
	}
	c.matchDigest("traced", tp.digest, tp.cells-tp.failed)
	if c.work == nil {
		w := tp.work
		c.work = &w
	}
	if tp.work != *c.work {
		c.fail(tp.cells, "work counts %+v, want %+v", tp.work, *c.work)
	}
}

// endToEndMetrics reports the untraced passes' medians.
func endToEndMetrics(passes []pass) map[string]metric {
	var wall, setup, p50, p90, alloc []float64
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		setup = append(setup, p.setup.Seconds())
		p50 = append(p50, percentile(p.cellMS, 50))
		p90 = append(p90, percentile(p.cellMS, 90))
		alloc = append(alloc, float64(p.allocBytes)/1e6)
	}
	return map[string]metric{
		"wall_s":      {median(wall), "s"},
		"setup_s":     {median(setup), "s"},
		"cell_p50_ms": {median(p50), "ms"},
		"cell_p90_ms": {median(p90), "ms"},
		"alloc_mb":    {median(alloc), "MB"},
	}
}

// layerMetrics reports the medians of the traced passes' per-layer
// metrics, the untraced passes' retries, and the traced wall against
// the untraced one.
func layerMetrics(passes []pass, layers []map[string]metric, tracedWall []float64) map[string]metric {
	var retries, untraced []float64
	for _, p := range passes {
		retries = append(retries, float64(p.retries))
		untraced = append(untraced, p.wall.Seconds())
	}
	out := map[string]metric{
		"runner.retries":      {median(retries), "count"},
		"trace_overhead_frac": {median(tracedWall)/median(untraced) - 1, "ratio"},
	}
	for name, m := range layers[0] {
		vs := make([]float64, len(layers))
		for k, l := range layers {
			vs[k] = l[name].Value
		}
		out[name] = metric{median(vs), m.Unit}
	}
	return out
}

// passLayerMetrics derives the per-layer metrics of one traced pass.
func passLayerMetrics(tp *tracedPass) map[string]metric {
	// Span durations in ns by name; queue waits from the execute span's
	// start, which is recorded before any of its cells; and each cell's
	// simulated time, its warmup plus measure spans.
	durs := map[string][]float64{}
	var execSpan span
	var queueWait []float64
	simNS := make([]float64, tp.cells)
	for _, s := range tp.spans {
		d := float64(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		switch s.Name {
		case "execute":
			execSpan = s
		case "cell":
			queueWait = append(queueWait, float64(s.Start-execSpan.Start))
		case "warmup", "measure":
			simNS[s.Cell] += d
		}
	}
	measureNS := sum(durs["measure"])
	nsByMode, cyclesByMode := map[string]float64{}, map[string]float64{}
	var simTotal, cycles, hops, samples, bytes float64
	for i, w := range tp.cellWork {
		nsByMode[tp.mode[i]] += simNS[i]
		cyclesByMode[tp.mode[i]] += float64(w.Cycles)
		simTotal += simNS[i]
		cycles += float64(w.Cycles)
		hops += float64(w.FlitHops)
		samples += float64(tp.samples[i])
		bytes += float64(tp.rowBytes[i])
	}

	cellSum := sum(durs["cell"])
	execNS := float64(execSpan.End - execSpan.Start)
	const ms, us = 1e6, 1e3
	m := map[string]metric{
		"scenario.resolve_ms": {sum(durs["resolve"]) / ms, "ms"},
		"scenario.grid_ms":    {sum(durs["grid"]) / ms, "ms"},
		"scenario.keys_ms":    {sum(durs["keys"]) / ms, "ms"},
		"scenario.render_ms":  {sum(durs["render"]) / ms, "ms"},

		"store.get_us_p50":         {percentile(durs["store.get"], 50) / us, "us"},
		"store.get_us_p90":         {percentile(durs["store.get"], 90) / us, "us"},
		"store.put_us_p50":         {percentile(durs["store.put"], 50) / us, "us"},
		"store.hit_frac":           {float64(tp.work.CellsCached) / float64(tp.cells), "ratio"},
		"store.bytes_per_row":      {bytes / float64(tp.cells), "bytes"},
		"runner.utilization":       {cellSum / (execNS * workers), "ratio"},
		"runner.straggler_s":       {(execNS - cellSum/workers) / 1e9, "s"},
		"runner.queue_wait_ms_p50": {percentile(queueWait, 50) / ms, "ms"},

		"network.ns_per_cycle":    {ratio(simTotal, cycles), "ns/cycle"},
		"network.ns_per_flit_hop": {ratio(measureNS, hops), "ns/hop"},
		"network.reset_us_p50":    {percentile(durs["reset"], 50) / us, "us"},
		"network.warmup_ms":       {sum(durs["warmup"]) / ms, "ms"},
		"network.measure_ms":      {measureNS / ms, "ms"},
		"workload.attach_us_p50":  {percentile(durs["workload.attach"], 50) / us, "us"},
		"telemetry.attach_us_p50": {percentile(durs["telemetry.attach"], 50) / us, "us"},
		"telemetry.emit_ms":       {sum(durs["emit"]) / ms, "ms"},
		"telemetry.samples":       {samples, "count"},
		"sweep.self_ms":           {float64(selfTimes(tp.spans)[0]) / ms, "ms"}, // span 0 is the sweep root

		"work.cycles":             {float64(tp.work.Cycles), "count"},
		"work.flit_hops":          {float64(tp.work.FlitHops), "count"},
		"work.delivered_flits":    {float64(tp.work.DeliveredFlits), "count"},
		"work.preemptions":        {float64(tp.work.Preemptions), "count"},
		"work.completed_requests": {float64(tp.work.CompletedRequests), "count"},
		"work.cells_executed":     {float64(tp.work.CellsExecuted), "count"},
		"work.cells_cached":       {float64(tp.work.CellsCached), "count"},
	}
	for _, mode := range []string{"pvc", "per-flow-queue", "no-qos"} {
		m["network.ns_per_cycle."+mode] = metric{ratio(nsByMode[mode], cyclesByMode[mode]), "ns/cycle"}
	}
	return m
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank q-th percentile of vs (0 for an
// empty slice).
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// median is the middle value of vs, averaging the two middle ones.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// hostLine describes the host a run measured on.
func hostLine() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, workers %d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), workers)
}
