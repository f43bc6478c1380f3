package network

import (
	"testing"

	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// chunkCycles is the piece length of the chunked schedule.
const chunkCycles = 4096

// runChunked advances n by cycles in Run calls of at most chunkCycles.
func runChunked(n *Network, cycles int) {
	for cycles > 0 {
		q := min(chunkCycles, cycles)
		n.Run(q)
		cycles -= q
	}
}

// TestChunkedRunMatchesUnchunked pins that a Run split into pieces is
// state-identical to one unchunked Run: idle fast-forwards clamp to each
// chunk's end and skipped cycles execute nothing. Traced sweeps rely on
// it when they time warmup and measurement as separate calls.
//
// Across every topology, every QoS mode and idle skipping on and off,
// two piecewise schedules must finish with exactly the fingerprint and
// per-flow flit counts of WarmupAndMeasure(warmup, measure):
//
//   - both windows run in chunkCycles pieces, with the collector paused
//     for warmup and reset at the boundary;
//   - the warmup run on its own, then WarmupAndMeasure(0, measure).
//
// The windows are long enough to cross chunk boundaries in both phases,
// and the workload stops injecting early so the tail is idle and the
// skip horizon must leap across chunk ends.
func TestChunkedRunMatchesUnchunked(t *testing.T) {
	const warmup, measure = 5_000, 12_000
	for _, kind := range topology.Kinds() {
		for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
			for _, disableSkip := range []bool{false, true} {
				name := kind.String() + "/" + mode.String() + "/skip"
				if disableSkip {
					name = kind.String() + "/" + mode.String() + "/ticked"
				}
				t.Run(name, func(t *testing.T) {
					w := traffic.UniformRandom(topology.ColumnNodes, 0.02).WithStop(9_000)
					qc := qos.DefaultConfig(w.TotalFlows())
					qc.Mode = mode
					cfg := Config{Kind: kind, QoS: qc, Workload: w, Seed: 100, DisableIdleSkip: disableSkip}
					finish := func(n *Network) skipFingerprint {
						fp := fingerprint(n)
						fp.flitsByFlow = n.Stats().FlitsByFlow()
						return fp
					}

					ref := MustNew(cfg)
					ref.WarmupAndMeasure(warmup, measure)
					want := finish(ref)

					chunked := MustNew(cfg)
					chunked.Stats().Pause()
					runChunked(chunked, warmup)
					chunked.measureStart()
					runChunked(chunked, measure)
					if got := finish(chunked); !equalFingerprints(got, want) {
						t.Errorf("chunked run diverged:\nchunked:   %+v\nunchunked: %+v", got, want)
					}

					split := MustNew(cfg)
					split.Stats().Pause()
					split.Run(warmup)
					split.WarmupAndMeasure(0, measure)
					if got := finish(split); !equalFingerprints(got, want) {
						t.Errorf("split warmup diverged:\nsplit:     %+v\nunchunked: %+v", got, want)
					}
				})
			}
		}
	}
}
