package scenario

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tanoq/internal/store"
	"tanoq/internal/topology"
	"tanoq/internal/workload"
)

// gridOf parses a TOML scenario and expands its grid.
func gridOf(t *testing.T, toml string) *Grid {
	t.Helper()
	sc, err := Parse([]byte(toml), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// zeroWall returns a copy of the rows with the wall-clock columns — the
// one legitimately non-deterministic part of a result — cleared, so
// separately-executed runs can be compared bit-for-bit.
func zeroWall(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := range out {
		out[i].Wall, out[i].CyclesPerSec = 0, 0
	}
	return out
}

// keysOf returns the grid's cache keys as a set.
func keysOf(t *testing.T, toml string) map[string]bool {
	t.Helper()
	keys, err := gridOf(t, toml).Keys()
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}

// TestRunTableDecoding pins the [run] table: the knobs decode into
// Deadline/Retries/Backoff/Cache (with `retries = 0` mapping to the
// runner's explicit no-retries sentinel), and nonsense — non-positive
// deadlines, negative retries or backoff, unknown keys, non-table
// values — is rejected at parse time.
func TestRunTableDecoding(t *testing.T) {
	sc, err := Parse([]byte("rate = 0.05\n[run]\ndeadline_ms = 60000\nretries = 2\nbackoff_ms = 250\ncache = true\n"), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Deadline != 60*time.Second || sc.Retries != 2 || sc.Backoff != 250*time.Millisecond || !sc.Cache {
		t.Fatalf("run table decoded wrong: deadline %v retries %d backoff %v cache %v",
			sc.Deadline, sc.Retries, sc.Backoff, sc.Cache)
	}
	sc, err = Parse([]byte("rate = 0.05\n[run]\nretries = 0\n"), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Retries != -1 {
		t.Errorf("explicit retries = 0 decoded to %d, want the -1 no-retries sentinel", sc.Retries)
	}
	sc, err = Parse([]byte("rate = 0.05\n"), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Deadline != 0 || sc.Retries != 0 || sc.Backoff != 0 || sc.Cache {
		t.Errorf("absent run table left non-zero knobs: %+v", sc)
	}
	for name, src := range map[string]string{
		"zero deadline":     "rate = 0.05\n[run]\ndeadline_ms = 0\n",
		"negative deadline": "rate = 0.05\n[run]\ndeadline_ms = -5\n",
		"negative retries":  "rate = 0.05\n[run]\nretries = -1\n",
		"negative backoff":  "rate = 0.05\n[run]\nbackoff_ms = -10\n",
		"unknown key":       "rate = 0.05\n[run]\nwall_clock = 9\n",
		"not a table":       "rate = 0.05\nrun = 3\n",
	} {
		if _, err := Parse([]byte(src), ".toml"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

const cacheBase = `
pattern = "uniform"
topology = "mesh_x1"
qos = ["pvc"]
rates = [0.03]
seeds = [42]
warmup = 200
measure = 800
`

// TestCacheKeyStability is the table-driven key contract over the full
// cell schema: re-encoding the same semantics — any file-key order, any
// display name, any execution-only knob — produces identical keys, and
// every semantic change produces disjoint ones.
func TestCacheKeyStability(t *testing.T) {
	base := keysOf(t, cacheBase)
	for name, tc := range map[string]struct {
		toml string
		same bool
	}{
		"key order":  {"measure = 800\nwarmup = 200\nseeds = [42]\nrates = [0.03]\nqos = [\"pvc\"]\ntopology = \"mesh_x1\"\npattern = \"uniform\"\n", true},
		"name":       {cacheBase + "name = \"renamed\"\n", true},
		"run knobs":  {cacheBase + "[run]\ndeadline_ms = 60000\nretries = 2\nbackoff_ms = 10\ncache = true\n", true},
		"rate":       {strings.Replace(cacheBase, "0.03", "0.04", 1), false},
		"seed":       {strings.Replace(cacheBase, "[42]", "[43]", 1), false},
		"topology":   {strings.Replace(cacheBase, "mesh_x1", "mecs", 1), false},
		"qos mode":   {strings.Replace(cacheBase, `"pvc"`, `"no-qos"`, 1), false},
		"pattern":    {strings.Replace(cacheBase, "uniform", "transpose", 1), false},
		"warmup":     {strings.Replace(cacheBase, "warmup = 200", "warmup = 300", 1), false},
		"measure":    {strings.Replace(cacheBase, "measure = 800", "measure = 900", 1), false},
		"stop_at":    {cacheBase + "stop_at = 600\n", false},
		"burst":      {cacheBase + "[burst]\nmean_on = 50\nmean_off = 150\n", false},
		"req frac":   {cacheBase + "request_fraction = 0.9\n", false},
		"frame":      {cacheBase + "frame_cycles = 4096\n", false},
		"window":     {cacheBase + "window_packets = 8\n", false},
		"quantum":    {cacheBase + "quantum_flits = 16\n", false},
		"margin":     {cacheBase + "margin_classes = 2\n", false},
		"watchdog":   {cacheBase + "[faults]\nwatchdog_cycles = 5000\n", false},
		"recovery":   {cacheBase + "[faults]\nretry_timeout = 300\nmax_retries = 2\n", false},
		"fault win":  {cacheBase + "[faults]\n[[faults.router]]\nnode = 3\nfrom = 100\nuntil = 200\n", false},
		"hs weights": {strings.Replace(cacheBase, `"uniform"`, `"hotspot"`, 1) + "hotspot_weights = [1, 2, 1, 1, 1, 1, 1, 1]\n", false},
	} {
		t.Run(name, func(t *testing.T) {
			got := keysOf(t, tc.toml)
			if tc.same {
				if !reflect.DeepEqual(got, base) {
					t.Errorf("expected identical keys, got %v vs %v", got, base)
				}
				return
			}
			for k := range got {
				if base[k] {
					t.Errorf("semantic change still maps to base key %s", k)
				}
			}
		})
	}
}

// TestCacheKeyFlowAndClosedAxes extends the stability table to the
// flows and closed-loop workload classes.
func TestCacheKeyFlowAndClosedAxes(t *testing.T) {
	flowBase := `
topology = "mesh_x1"
qos = ["pvc"]
seeds = [7]
warmup = 200
measure = 800
[[flows]]
node = 1
rate = 0.2
dest = 5
role = "victim"
[[flows]]
node = 2
rate = 0.5
dest = 5
role = "aggressor"
`
	base := keysOf(t, flowBase)
	for name, tc := range map[string]struct {
		toml string
		same bool
	}{
		"same flows":   {flowBase, true},
		"flow rate":    {strings.Replace(flowBase, "0.5", "0.6", 1), false},
		"flow dest":    {strings.Replace(flowBase, "dest = 5\nrole = \"aggressor\"", "dest = 6\nrole = \"aggressor\"", 1), false},
		"flow role":    {strings.Replace(flowBase, `"aggressor"`, `"victim"`, 1), false},
		"role dropped": {strings.Replace(flowBase, "role = \"victim\"\n", "", 1), false},
	} {
		t.Run(name, func(t *testing.T) {
			got := keysOf(t, tc.toml)
			if tc.same != reflect.DeepEqual(got, base) {
				t.Errorf("same=%v violated", tc.same)
			}
		})
	}

	closedBase := `
pattern = "uniform"
topology = "mesh_x1"
qos = ["pvc"]
seeds = [7]
warmup = 200
measure = 800
[workload]
mode = "closed"
outstanding = [4]
think_times = [0]
`
	cb := keysOf(t, closedBase)
	for name, tc := range map[string]struct {
		toml string
		same bool
	}{
		"same closed":  {closedBase, true},
		"outstanding":  {strings.Replace(closedBase, "[4]", "[8]", 1), false},
		"think":        {strings.Replace(closedBase, "think_times = [0]", "think_times = [50]", 1), false},
		"packet shape": {closedBase + "request_flits = 4\nreply_flits = 1\n", false},
	} {
		t.Run(name, func(t *testing.T) {
			got := keysOf(t, tc.toml)
			if tc.same != reflect.DeepEqual(got, cb) {
				t.Errorf("same=%v violated", tc.same)
			}
		})
	}

	// A closed cell and an open cell of the same pattern/seed must never
	// collide.
	for k := range cb {
		if base[k] {
			t.Error("closed and flows cells share a key")
		}
	}
}

// TestCacheKeyTraceDigest pins the replay rule: a cell's key follows the
// trace file's *content*, so editing a trace in place retires its rows.
func TestCacheKeyTraceDigest(t *testing.T) {
	dir := t.TempDir()
	rec := recordRun(t)
	tr := rec.Trace(workload.TraceHeader{
		Nodes: topology.ColumnNodes, Topology: "mesh_x1", QoS: "pvc",
		Seed: 42, Warmup: 200, Measure: 800,
	})
	path := filepath.Join(dir, "t.trace")
	if err := workload.WriteTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(dir, "replay.toml")
	if err := os.WriteFile(scPath, []byte(
		"topology = \"mesh_x1\"\nqos = [\"pvc\"]\nwarmup = 200\nmeasure = 800\n[workload]\ntrace = \"t.trace\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	load := func() []string {
		sc, err := Load(scPath)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sc.Grid()
		if err != nil {
			t.Fatal(err)
		}
		keys, err := g.Keys()
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	k1 := load()
	if k2 := load(); !reflect.DeepEqual(k1, k2) {
		t.Fatal("identical trace produced different keys")
	}
	// Overwrite with a valid but different capture (the header seed
	// differs): same path, different content, different keys.
	tr2 := rec.Trace(workload.TraceHeader{
		Nodes: topology.ColumnNodes, Topology: "mesh_x1", QoS: "pvc",
		Seed: 43, Warmup: 200, Measure: 800,
	})
	if err := workload.WriteTraceFile(path, tr2); err != nil {
		t.Fatal(err)
	}
	if k3 := load(); reflect.DeepEqual(k1, k3) {
		t.Fatal("edited trace kept its cache keys")
	}
}

// durableGrid is a small two-cell grid for lifecycle tests.
const durableToml = `
pattern = "uniform"
topology = "mesh_x1"
qos = ["pvc"]
rates = [0.02, 0.05]
seeds = [42]
warmup = 200
measure = 800
`

// TestRunDurableCacheLifecycle is the memoization contract: a first run
// executes everything, a re-run against the same store executes nothing
// and returns bit-identical rows.
func TestRunDurableCacheLifecycle(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := gridOf(t, durableToml)
	plain := g.Run(RunOpts{Workers: 1})

	first, err := gridOf(t, durableToml).RunDurable(context.Background(), DurableOpts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if first.Hits != 0 || first.Executed != g.Size() || first.Interrupted {
		t.Fatalf("first run: %+v, want all executed", first)
	}
	if !reflect.DeepEqual(zeroWall(first.Results), zeroWall(plain)) {
		t.Fatalf("durable run diverged from Grid.Run:\n%+v\n%+v", first.Results, plain)
	}

	second, err := gridOf(t, durableToml).RunDurable(context.Background(), DurableOpts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if second.Hits != g.Size() || second.Executed != 0 {
		t.Fatalf("re-run: hits %d executed %d, want %d/0", second.Hits, second.Executed, g.Size())
	}
	if !reflect.DeepEqual(zeroWall(second.Results), zeroWall(plain)) {
		t.Fatal("cached rows diverge from executed rows")
	}

	// The verify pass re-runs hits and must confirm them.
	verified, err := gridOf(t, durableToml).RunDurable(context.Background(),
		DurableOpts{Store: st, VerifySample: g.Size()})
	if err != nil {
		t.Fatal(err)
	}
	if verified.Verified != g.Size() || len(verified.VerifyBad) != 0 {
		t.Fatalf("verify pass: %d verified, bad %v", verified.Verified, verified.VerifyBad)
	}
}

// TestRunDurableResumeCompletesPartialCache pins resume: with only part
// of the grid cached (an interrupted earlier run), a resumed sweep
// serves the cached rows, executes the rest, and the final table is
// bit-identical to a never-interrupted run.
func TestRunDurableResumeCompletesPartialCache(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	journal, err := store.OpenJournal(filepath.Join(st.Dir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()

	// "Interrupted" first pass: only the first rate is swept, so the
	// store holds half the full grid.
	partial := strings.Replace(durableToml, "[0.02, 0.05]", "[0.02]", 1)
	if _, err := gridOf(t, partial).RunDurable(context.Background(),
		DurableOpts{Store: st, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	if journal.Len() != 1 {
		t.Fatalf("journal holds %d keys after partial run, want 1", journal.Len())
	}

	full := gridOf(t, durableToml)
	rep, err := full.RunDurable(context.Background(), DurableOpts{Store: st, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hits != 1 || rep.Executed != 1 {
		t.Fatalf("resume: hits %d executed %d, want 1/1", rep.Hits, rep.Executed)
	}
	uninterrupted := gridOf(t, durableToml).Run(RunOpts{Workers: 1})
	resumed, fresh := zeroWall(rep.Results), zeroWall(uninterrupted)
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed table diverges from uninterrupted run:\n%+v\n%+v", rep.Results, uninterrupted)
	}
	// The rendered artifacts must be byte-identical too — the CLI-level
	// resume contract (modulo the wall-clock columns, which record each
	// run's own elapsed time).
	if Render("x", resumed) != Render("x", fresh) ||
		CSV("x", resumed) != CSV("x", fresh) {
		t.Error("rendered output differs between resumed and uninterrupted runs")
	}
	if journal.Len() != 2 {
		t.Errorf("journal holds %d keys after resume, want 2", journal.Len())
	}
}

// TestRunDurableCancellation pins graceful cancellation: a cancelled
// sweep returns rows marked skipped and reports itself interrupted.
func TestRunDurableCancellation(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gridOf(t, durableToml)
	rep, err := g.RunDurable(ctx, DurableOpts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted || rep.Skipped != g.Size() {
		t.Fatalf("cancelled sweep: %+v, want all skipped", rep)
	}
	for _, r := range rep.Results {
		if r.Error != skippedError || r.Attempts != 0 {
			t.Errorf("skipped row: %+v", r)
		}
	}
	// Rendering marks them FAILED rather than printing zero metrics.
	if out := Render("x", rep.Results); !strings.Contains(out, "FAILED") || !strings.Contains(out, "cancelled") {
		t.Errorf("skipped rows render without an interrupted marker:\n%s", out)
	}
}

// TestRunDurableVictimBaselineCached pins the reference-cell contract:
// victim-slowdown rows cache and re-serve without re-running the hidden
// reference cells, and a fully-cached re-run matches Grid.Run exactly.
func TestRunDurableVictimBaselineCached(t *testing.T) {
	toml := `
topology = "mesh_x1"
qos = ["no-qos"]
seeds = [42]
warmup = 300
measure = 1500
[[flows]]
node = 1
rate = 0.05
dest = 7
role = "victim"
[[flows]]
node = 2
rate = 0.9
dest = 7
[[flows]]
node = 3
rate = 0.9
dest = 7
`
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plain := gridOf(t, toml).Run(RunOpts{Workers: 1})
	if plain[0].VictimSlowdown <= 1 {
		t.Fatalf("scenario does not exercise the slowdown column: %+v", plain[0])
	}
	first, err := gridOf(t, toml).RunDurable(context.Background(), DurableOpts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zeroWall(first.Results), zeroWall(plain)) {
		t.Fatal("durable victim run diverges from Grid.Run")
	}
	second, err := gridOf(t, toml).RunDurable(context.Background(), DurableOpts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 || second.Hits != 1 {
		t.Fatalf("victim re-run executed %d cells, want 0", second.Executed)
	}
	if !reflect.DeepEqual(zeroWall(second.Results), zeroWall(plain)) {
		t.Fatal("cached victim rows diverge")
	}
}

// TestRunDurableVerifyCatchesCorruption pins -cache-verify: a tampered
// cache entry is detected by the verification re-run.
func TestRunDurableVerifyCatchesCorruption(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := gridOf(t, durableToml)
	if _, err := g.RunDurable(context.Background(), DurableOpts{Store: st}); err != nil {
		t.Fatal(err)
	}
	// Tamper with the first cell's payload: valid envelope, wrong data.
	keys, err := g.Keys()
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := st.Get(keys[0])
	if !ok {
		t.Fatal("entry missing after run")
	}
	var row cachedRow
	if err := json.Unmarshal(blob, &row); err != nil {
		t.Fatal(err)
	}
	row.MeanLatency += 1000
	forged, _ := json.Marshal(row)
	if err := st.Put(keys[0], forged); err != nil {
		t.Fatal(err)
	}

	rep, err := gridOf(t, durableToml).RunDurable(context.Background(),
		DurableOpts{Store: st, VerifySample: g.Size()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VerifyBad) != 1 || rep.Verified != g.Size()-1 {
		t.Fatalf("verification missed the forged entry: verified %d bad %v", rep.Verified, rep.VerifyBad)
	}
}

// TestRunDurableVerifyProbedGrid pins -cache-verify on a probed
// scenario: a re-executed row carries its telemetry timeline and a
// cache-served row never does, so the verification pass must not count
// the timeline as a divergence.
func TestRunDurableVerifyProbedGrid(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := telemetryBase + "[telemetry]\ninterval = 400\n"
	g := gridOf(t, src)
	if _, err := g.RunDurable(context.Background(), DurableOpts{Store: st}); err != nil {
		t.Fatal(err)
	}
	rep, err := gridOf(t, src).RunDurable(context.Background(),
		DurableOpts{Store: st, VerifySample: g.Size()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 0 || rep.Verified != g.Size() || len(rep.VerifyBad) != 0 {
		t.Fatalf("verify pass on probed grid: executed %d, verified %d of %d, bad %v",
			rep.Executed, rep.Verified, g.Size(), rep.VerifyBad)
	}
}

// TestCacheKeyGolden pins the cache keys of three grids to recorded
// digests: a store filled by an earlier build must keep serving every
// row after a change. A failure here means the change
// retires every cached row; only make it on purpose, with the new
// digests, when the cell schema or the simulator's results changed.
func TestCacheKeyGolden(t *testing.T) {
	closed := `
pattern = "uniform"
topology = "mesh_x1"
qos = ["pvc"]
seeds = [7]
warmup = 200
measure = 800
[workload]
mode = "closed"
outstanding = [4]
think_times = [0]
`
	for name, tc := range map[string]struct {
		toml string
		want []string
	}{
		"open": {cacheBase, []string{
			"4d22b9a64d3d1eaf8480516eec3474560e31a176bbd0cc6b95069164f118a375",
		}},
		"closed": {closed, []string{
			"798c6c19d9d0c45d6386145ad83f8b6849802f25232aed1642228ab87cd65eb7",
		}},
		"telemetry": {telemetryBase + "[telemetry]\ninterval = 400\n", []string{
			"4d532f89d3aeb38d4684ea593728ec7fadd2ac3296ba4369e1e17022bdb8ffc5",
			"11f0309237c2a9b126f539b6fb7633f477eb849932f1fc19a95582d94037444e",
		}},
	} {
		t.Run(name, func(t *testing.T) {
			got, err := gridOf(t, tc.toml).Keys()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("cache keys moved:\ngot  %q\nwant %q", got, tc.want)
			}
		})
	}
}
