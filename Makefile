# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

.PHONY: build test vet lint race determinism audit sweep-smoke trace-smoke fuzz-smoke resume-smoke metrics-smoke bench bench-json

# The engine version stamp: embedded in `noctool version`, cache keys,
# BENCH_*.json and v2 trace headers, so results name the engine that made
# them (a new stamp retires every cached sweep row). Binaries built
# without the ldflags report "dev".
VERSION := $(shell git describe --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X tanoq/internal/network.buildVersion=$(VERSION)

build:
	go build -ldflags "$(LDFLAGS)" ./...

vet:
	go vet ./...

test:
	go test ./...

# lint mirrors CI's static-analysis job: vet always, staticcheck when the
# tool is installed (go install honnef.co/go/tools/cmd/staticcheck@latest).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# race runs the full test suite under the race detector (CI's test step).
race:
	go test -race ./...

# determinism is CI's named gate for the engine's core contract: the
# idle-skip equivalence and worker-count/skip determinism suites, run
# twice (the pattern covers ...Equivalent..., ...Determinism and
# ...Deterministic... test names across network/runner/experiments/
# scenario/sim).
determinism:
	go test -run 'Equivalen|Determin' -count=2 ./...

# audit reruns the robustness and determinism suites with the engine's
# invariant auditor armed (TANOQ_AUDIT): every 256 cycles each network
# walks its free lists, event census, VC pools and credit windows and
# fails loudly on the first conservation violation, so silent state
# corruption cannot hide behind a passing fingerprint (CI's audit job).
audit:
	TANOQ_AUDIT=256 go test -run 'Fault|Retry|Recover|Watchdog|Audit|Equivalen|Determin' -count=1 ./...

# sweep-smoke exercises the declarative scenario path end to end: the
# quick Figure 4 grid from a JSON file, the permutation-pattern grid from
# a TOML file (an include over the shared base), the closed-loop client
# sweep, a trace-replay sweep of the committed example capture, the
# aggressor/victim DoS sweep (victim slowdown column), and a
# fault-injection degradation sweep (CI's sweep step). The layered block
# then gates the resolver itself: -explain provenance against a committed
# golden, a profiled run against its hand-flattened equivalent
# (byte-identical CSV modulo the wall-clock columns), and cache
# transparency (the profiled run against the warm cache the flat run
# filled must execute zero cells).
sweep-smoke:
	go run ./cmd/noctool sweep -quick examples/sweep/fig4-quick.json
	go run ./cmd/noctool sweep examples/sweep/patterns.toml
	go run ./cmd/noctool sweep examples/sweep/closed-loop.toml
	go run ./cmd/noctool sweep examples/sweep/replay.toml
	go run ./cmd/noctool sweep examples/sweep/aggressor-victim.toml
	go run ./cmd/noctool degrade examples/sweep/degrade.toml
	go run ./cmd/noctool sweep -explain examples/sweep/layered.toml#quick > /tmp/tanoq-layered.explain
	diff examples/sweep/layered-quick.explain /tmp/tanoq-layered.explain
	rm -rf /tmp/tanoq-layered-cache
	go run ./cmd/noctool sweep -csv -cache -cache-dir /tmp/tanoq-layered-cache examples/sweep/layered-flat.toml > /tmp/tanoq-layered-flat.csv
	go run ./cmd/noctool sweep -csv -cache -cache-dir /tmp/tanoq-layered-cache examples/sweep/layered.toml#quick > /tmp/tanoq-layered-prof.csv 2> /tmp/tanoq-layered-prof.err
	cut -d, --complement -f28,29 /tmp/tanoq-layered-flat.csv > /tmp/tanoq-layered-flat.cut
	cut -d, --complement -f28,29 /tmp/tanoq-layered-prof.csv > /tmp/tanoq-layered-prof.cut
	diff /tmp/tanoq-layered-flat.cut /tmp/tanoq-layered-prof.cut
	grep 'executed 0' /tmp/tanoq-layered-prof.err
	@echo "sweep-smoke: profile matched its hand-flattened file byte-identically; warm cache executed zero cells"

# trace-smoke proves the record→replay exactness contract end to end:
# capture a short open-loop run's injection stream, replay the trace in
# the recorded cell, and diff the two delivery fingerprints (any byte of
# drift fails the diff).
trace-smoke:
	go run ./cmd/noctool trace -out /tmp/tanoq-trace-smoke.trace record examples/sweep/trace-smoke.toml | tee /tmp/tanoq-trace-rec.txt
	go run ./cmd/noctool trace replay /tmp/tanoq-trace-smoke.trace | tee /tmp/tanoq-trace-rep.txt
	@grep '^fingerprint: ' /tmp/tanoq-trace-rec.txt > /tmp/tanoq-trace-rec.fp
	@grep '^fingerprint: ' /tmp/tanoq-trace-rep.txt > /tmp/tanoq-trace-rep.fp
	diff /tmp/tanoq-trace-rec.fp /tmp/tanoq-trace-rep.fp
	@echo "trace-smoke: record and replay fingerprints match"

# resume-smoke proves durable sweep execution end to end: run the grid
# uninterrupted for reference, SIGINT a cached sequential run mid-grid
# (finished cells checkpoint to the content-addressed store as they
# land), resume with -resume and require the resumed table to diff
# bit-identical against the reference (modulo the wall-clock columns,
# which record each run's own elapsed time), then re-run fully cached with
# verification and grep the "executed 0" accounting line — a warm cache
# runs zero simulations. The kill is timing-tolerant by construction:
# wherever the signal lands, the resumed output must still match.
resume-smoke:
	rm -rf /tmp/tanoq-resume-cache
	go build -ldflags "$(LDFLAGS)" -o /tmp/tanoq-resume-noctool ./cmd/noctool
	/tmp/tanoq-resume-noctool sweep -csv examples/sweep/resume-smoke.toml > /tmp/tanoq-resume-ref.csv
	( /tmp/tanoq-resume-noctool sweep -parallel 1 -csv -cache -cache-dir /tmp/tanoq-resume-cache examples/sweep/resume-smoke.toml > /tmp/tanoq-resume-int.csv 2> /tmp/tanoq-resume-int.err & \
	  pid=$$!; sleep 2; kill -INT $$pid 2>/dev/null; wait $$pid ) || true
	@echo "resume-smoke: interrupted run said:"; tail -n 2 /tmp/tanoq-resume-int.err
	/tmp/tanoq-resume-noctool sweep -csv -resume -cache-dir /tmp/tanoq-resume-cache examples/sweep/resume-smoke.toml > /tmp/tanoq-resume-res.csv 2> /tmp/tanoq-resume-res.err
	cut -d, --complement -f28,29 /tmp/tanoq-resume-ref.csv > /tmp/tanoq-resume-ref.cut
	cut -d, --complement -f28,29 /tmp/tanoq-resume-res.csv > /tmp/tanoq-resume-res.cut
	diff /tmp/tanoq-resume-ref.cut /tmp/tanoq-resume-res.cut
	/tmp/tanoq-resume-noctool sweep -csv -resume -cache-dir /tmp/tanoq-resume-cache -cache-verify 2 examples/sweep/resume-smoke.toml > /dev/null 2> /tmp/tanoq-resume-full.err
	grep 'executed 0' /tmp/tanoq-resume-full.err
	@echo "resume-smoke: interrupted sweep resumed bit-identically; warm cache executed zero cells"

# metrics-smoke gates the observability surface end to end. First the
# in-run half: `noctool timeline` over the committed telemetry scenario
# must reproduce its per-interval table byte-identically (probes ride
# the event calendar, so the series is as deterministic as the run).
# Then the live half: a short sweep serving -http must answer /metrics
# with exactly the committed exposition shape (families, HELP/TYPE
# lines and label sets are static from the first scrape; the sed strips
# sample values) and answer /debug/pprof/*, and -progress must emit its
# accounting line. The scrape retry loop tolerates slow process start;
# -http-linger keeps the endpoint up after the (sub-second) sweep
# finishes so the scrape never races completion, and the kill -9 just
# cuts the linger short.
metrics-smoke:
	go build -ldflags "$(LDFLAGS)" -o /tmp/tanoq-metrics-noctool ./cmd/noctool
	/tmp/tanoq-metrics-noctool timeline examples/sweep/timeline-smoke.toml > /tmp/tanoq-timeline.out
	diff examples/sweep/timeline-smoke.golden /tmp/tanoq-timeline.out
	rm -rf /tmp/tanoq-metrics-cache
	/tmp/tanoq-metrics-noctool sweep -parallel 1 -progress -cache -cache-dir /tmp/tanoq-metrics-cache \
	  -http 127.0.0.1:29471 -http-linger 60s examples/sweep/timeline-smoke.toml > /dev/null 2> /tmp/tanoq-metrics.err & \
	pid=$$!; \
	ok=; for i in $$(seq 1 150); do \
	  if grep -q 'progress:' /tmp/tanoq-metrics.err 2>/dev/null; then ok=1; break; fi; \
	  sleep 0.2; done; \
	test -n "$$ok" || { echo "metrics-smoke: sweep never reported progress" >&2; kill -9 $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://127.0.0.1:29471/metrics > /tmp/tanoq-metrics.raw || { echo "metrics-smoke: /metrics not served" >&2; kill -9 $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://127.0.0.1:29471/debug/pprof/cmdline > /dev/null || { echo "metrics-smoke: pprof not served" >&2; kill -9 $$pid 2>/dev/null; exit 1; }; \
	kill -9 $$pid 2>/dev/null; true
	sed -E 's/ [0-9][0-9.eE+-]*$$/ V/' /tmp/tanoq-metrics.raw > /tmp/tanoq-metrics.norm
	diff examples/sweep/metrics-smoke.golden /tmp/tanoq-metrics.norm
	grep 'progress:' /tmp/tanoq-metrics.err
	@echo "metrics-smoke: timeline golden matched; /metrics exposition matched modulo values; pprof answered"

# fuzz-smoke runs the scenario-decoder fuzzer for a short budget (CI's
# fuzz step); `go test -fuzz FuzzScenarioDecode ./internal/scenario` runs
# it open-ended.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzScenarioDecode -fuzztime 10s ./internal/scenario

# bench runs the repository benchmark suite once through `go test`.
bench:
	go test -run '^$$' -bench . -benchtime 1x -benchmem .

# bench-json writes the machine-readable perf snapshot BENCH_<date>.json
# (engine step cost, quick Fig4 grid wall-clock, low-load cell speedups);
# commit it to refresh CI's bench-regression baseline.
bench-json:
	go run ./cmd/noctool bench
