package main

import (
	"encoding/json"
	"fmt"
)

// defaultSeed is the seed whose row digests and work counts are pinned
// below. Any other seed is checked by agreement between the passes of
// one run instead.
const defaultSeed = 1

// pin is a workload's expected output at the default seed: the digest
// of its result rows without wall-clock columns, and its work counts.
type pin struct {
	digest string
	work   workCounts
}

var pinned = map[string]pin{
	"open-saturation": {
		digest: "5b04851e103b140b6981667a957cd5ce9157dc45eece0e22d91baadfd529c015",
		work:   workCounts{Cycles: 1440000, FlitHops: 6130962, DeliveredFlits: 4371313, CellsExecuted: 120},
	},
	"closed-probed": {
		digest: "62ccbb5ebbc7c0a03dbea1958df5a91be2593d4922e786a0f2f64c95e3141477",
		work: workCounts{Cycles: 42240000, FlitHops: 12659822, DeliveredFlits: 9239207,
			CompletedRequests: 1847846, CellsExecuted: 384},
	},
	"warm-rerun": {
		digest: "49158f0b7654cdf07486691b94055fca3166e892916d1113f117d611abf01bc6",
		work:   workCounts{CellsCached: 3840},
	},
}

// workers is the runner's pool size for every pass: the benchmark host
// has two cores, and the runner never gets more workers than cores.
const workers = 2

// workloadSpec is one named benchmark grid. Its scenario file is generated
// from the seed argument, so the program only ever receives the
// generated input.
type workloadSpec struct {
	name string
	// warm workloads fill their store once before timing; every timed
	// pass must then be served entirely from the cache.
	warm bool
	// scenario builds the scenario document for a seed; tiny shrinks
	// the grid and its cycle windows for the benchmark's own tests.
	scenario func(seed uint64, tiny bool) map[string]any
}

// workloads lists the benchmark's grids. Each one is a batch of cells
// drained by a fixed pool of `workers` runner slots; see README.md for
// why each was chosen and which layer it stresses.
var workloads = []workloadSpec{
	{name: "open-saturation", scenario: openSaturation},
	{name: "closed-probed", scenario: closedProbed},
	{name: "warm-rerun", warm: true, scenario: warmRerun},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// openSaturation is the paper's load-latency regime: open-loop uniform
// and tornado traffic on every topology and QoS mode, at rates below,
// at and past saturation (120 cells).
func openSaturation(seed uint64, tiny bool) map[string]any {
	sc := map[string]any{
		"name":       "open-saturation",
		"patterns":   []string{"uniform", "tornado"},
		"topologies": []string{"all"},
		"qos":        []string{"all"},
		"rates":      []float64{0.02, 0.05, 0.08, 0.11},
		"seeds":      seedList(seed, 1),
		"warmup":     2000,
		"measure":    10000,
	}
	if tiny {
		sc["rates"] = []float64{0.02, 0.11}
		sc["warmup"], sc["measure"] = 200, 1000
	}
	return sc
}

// closedProbed is many short, mostly idle closed-loop cells with
// telemetry armed (384 cells): per-cell fixed costs, the idle
// fast-forward and the probes dominate, not arbitration.
func closedProbed(seed uint64, tiny bool) map[string]any {
	sc := map[string]any{
		"name":       "closed-probed",
		"pattern":    "hotspot",
		"topologies": []string{"mesh_x1", "mecs", "dps"},
		"qos":        []string{"pvc", "no-qos"},
		"seeds":      seedList(seed, 16),
		"warmup":     10000,
		"measure":    100000,
		"workload": map[string]any{
			"mode":        "closed",
			"outstanding": []int{1, 4},
			"think_time":  []float64{200, 2000},
		},
		"telemetry": map[string]any{
			"interval": 5000,
			"series":   []string{"flits", "events", "occupancy"},
		},
	}
	if tiny {
		sc["seeds"] = seedList(seed, 1)
		sc["warmup"], sc["measure"] = 1000, 5000
	}
	return sc
}

// warmRerun is a wide grid of short open-loop cells (3840 cells) that
// is re-swept against a filled store, so the engine stays idle and
// the cache, key and emitter layers do all the work.
func warmRerun(seed uint64, tiny bool) map[string]any {
	sc := map[string]any{
		"name":       "warm-rerun",
		"patterns":   []string{"uniform", "tornado", "transpose", "bit-complement"},
		"topologies": []string{"all"},
		"qos":        []string{"all"},
		"rates":      []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08},
		"seeds":      seedList(seed, 8),
		"warmup":     100,
		"measure":    400,
	}
	if tiny {
		sc["rates"] = []float64{0.02}
		sc["seeds"] = seedList(seed, 1)
	}
	return sc
}

// scenarioJSON renders a workload's generated scenario file.
func (w workloadSpec) scenarioJSON(seed uint64, tiny bool) ([]byte, error) {
	return json.MarshalIndent(w.scenario(seed, tiny), "", "  ")
}

// seedList derives n distinct cell seeds from the benchmark seed with
// splitmix64. Values stay below 2^31 so they survive any decoder that
// reads numbers as float64.
func seedList(seed uint64, n int) []uint64 {
	out := make([]uint64, 0, n)
	seen := map[uint64]bool{}
	x := seed
	for len(out) < n {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		s := z>>33 + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
