package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tanoq/internal/runner"
	"tanoq/internal/scenario"
	"tanoq/internal/store"
)

// sweepOpts carries the CLI state the sweep subcommand layers over a
// scenario file: the resolver layers (profile, env, schedule flags,
// -set), output format, and the durable-execution knobs. The durable
// knobs (cache and per-cell deadline/retry budget) never change results,
// only whether and how cells execute, so they stay out of cache keys.
type sweepOpts struct {
	layers  layerOpts
	csv     bool
	outPath string
	explain bool

	cache    bool
	cacheDir string
	resume   bool
	verify   int
	deadline time.Duration
	retries  int
	backoff  time.Duration

	httpAddr     string
	httpLinger   time.Duration
	progress     bool
	timelinePath string
}

// sweepMain parses the sweep subcommand's flags and runs the sweep.
func sweepMain(args []string) error {
	fs := newFlagSet("sweep", "noctool sweep [flags] <scenario>[#profile]",
		`Expand and run a declarative scenario file (.json/.toml) or built-in
scenario name. Files resolve through the layered pipeline — defaults <
include chain < file < profile < TANOQ_SET_* env < schedule flags <
-set — and -explain prints every resolved key with its provenance.`)
	sim := addSimFlags(fs)
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	out := fs.String("out", "", "output path for the sweep's JSON report")
	profile := fs.String("profile", "", "named [profiles.<name>] patch to apply (overrides a #profile suffix)")
	var set multiFlag
	fs.Var(&set, "set", "top-layer override `key=value` (dotted paths; repeatable)")
	explain := fs.Bool("explain", false, "print the resolved scenario with per-key provenance instead of running")
	cache := fs.Bool("cache", false, "memoize cell results in the content-addressed store")
	cacheDir := fs.String("cache-dir", store.DefaultDir, "result store directory")
	resume := fs.Bool("resume", false, "resume an interrupted sweep from the cache (implies -cache)")
	cacheVerify := fs.Int("cache-verify", 0, "re-execute up to N cached hits and fail on divergence")
	deadline := fs.Duration("deadline", 0, "wall-clock budget per cell (0 = none)")
	retries := fs.Int("retries", 1, "extra attempts per failed cell (0 disables retries)")
	backoff := fs.Duration("backoff", 0, "base retry delay, doubling per attempt")
	httpAddr := fs.String("http", "", "serve live Prometheus /metrics and /debug/pprof on `addr` while the sweep runs")
	httpLinger := fs.Duration("http-linger", 0, "keep the -http endpoint up this long after the sweep finishes")
	progress := fs.Bool("progress", false, "print throttled progress lines with an ETA to stderr")
	timeline := fs.String("timeline", "", "write per-cell telemetry timelines to `path` (.json or .csv; needs a [telemetry] table)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("sweep needs exactly one scenario file or built-in name")
	}
	explicit := explicitFlags(fs)
	return runSweep(fs.Arg(0), sweepOpts{
		layers: layerOpts{
			sim: sim, explicit: explicit, params: sim.params(explicit),
			profile: *profile, set: set,
		},
		csv: *csv, outPath: *out, explain: *explain,
		cache: *cache, cacheDir: *cacheDir, resume: *resume, verify: *cacheVerify,
		deadline: *deadline, retries: *retries, backoff: *backoff,
		httpAddr: *httpAddr, httpLinger: *httpLinger, progress: *progress,
		timelinePath: *timeline,
	})
}

// degradeMain parses the degrade subcommand's flags and runs the
// degradation sweep.
func degradeMain(args []string) error {
	fs := newFlagSet("degrade", "noctool degrade [flags] <scenario>[#profile]",
		`Run a scenario with a [faults] table against its fault-free baseline
and report per point the delivered fraction, retry/drop counts, victim
slowdown and latency inflation per QoS mode. Scenario files resolve
through the same layered pipeline as sweep.`)
	sim := addSimFlags(fs)
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	out := fs.String("out", "", "output path for the degradation CSV")
	profile := fs.String("profile", "", "named [profiles.<name>] patch to apply (overrides a #profile suffix)")
	var set multiFlag
	fs.Var(&set, "set", "top-layer override `key=value` (dotted paths; repeatable)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("degrade needs exactly one scenario file with a [faults] table")
	}
	explicit := explicitFlags(fs)
	return runDegrade(fs.Arg(0), sweepOpts{
		layers: layerOpts{
			sim: sim, explicit: explicit, params: sim.params(explicit),
			profile: *profile, set: set,
		},
		csv: *csv, outPath: *out,
	})
}

// runSweep resolves a scenario through the layer pipeline, expands the
// sweep grid, runs it through the durable runner and emits a table or
// CSV to stdout (plus JSON to -out when given).
//
// Every sweep goes through Grid.RunDurable: without -cache it behaves
// exactly like the plain grid runner (plus the deadline/retry knobs and
// graceful SIGINT draining); with -cache (or cache = true in the
// scenario's [run] table) finished rows are checkpointed to the
// content-addressed store as they land, and -resume serves them back
// without simulating.
func runSweep(pathOrName string, o sweepOpts) error {
	sc, res, err := loadLayered(pathOrName, o.layers)
	if err != nil {
		return err
	}
	if o.explain {
		if res == nil {
			return fmt.Errorf("scenario %q is a built-in: -explain needs a scenario file (built-ins have no layers)", pathOrName)
		}
		fmt.Print(res.Explain())
		return nil
	}
	grid, err := sc.Grid()
	if err != nil {
		return err
	}

	// Layer the durable knobs: the scenario's [run] table below the
	// explicitly-set flags (same precedence as seed/warmup/measure). An
	// explicit `-retries 0` means "no retries", which the runner spells
	// as a negative budget; 0 there means "use the default single retry".
	opts := scenario.DurableOpts{
		RunOpts: scenario.RunOpts{
			Workers:         o.layers.params.Workers,
			DisableIdleSkip: o.layers.params.DisableIdleSkip,
		},
		Deadline:     sc.Deadline,
		Retries:      sc.Retries,
		Backoff:      sc.Backoff,
		VerifySample: o.verify,
	}
	if o.layers.explicit["deadline"] {
		opts.Deadline = o.deadline
	}
	if o.layers.explicit["retries"] {
		opts.Retries = o.retries
		if o.retries == 0 {
			opts.Retries = -1
		}
	}
	if o.layers.explicit["backoff"] {
		opts.Backoff = o.backoff
	}

	// Live accounting: the /metrics endpoint and the -progress printer
	// share one sweepMetrics instance fed from the per-cell completion
	// callback. Observability never changes what executes — OnCell only
	// observes results as they land.
	var metrics *sweepMetrics
	var prog *progressPrinter
	if o.httpAddr != "" || o.progress {
		metrics = newSweepMetrics(len(grid.Points), runner.Workers(opts.Workers))
		opts.OnCell = metrics.onCell
		if o.progress {
			prog = &progressPrinter{m: metrics}
			inner := opts.OnCell
			opts.OnCell = func(ev scenario.CellEvent) {
				inner(ev)
				prog.onCell(ev)
			}
		}
		if o.httpAddr != "" {
			stop, err := serveMetrics(metrics, o.httpAddr, o.httpLinger)
			if err != nil {
				return err
			}
			defer stop()
		}
	}

	if o.cache || o.resume || sc.Cache {
		st, err := store.Open(o.cacheDir)
		if err != nil {
			return err
		}
		opts.Store = st
		jr, err := store.OpenJournal(filepath.Join(o.cacheDir, "journal"))
		if err != nil {
			return err
		}
		defer jr.Close()
		opts.Journal = jr
	}

	// First SIGINT/SIGTERM cancels the grid: no new cells are issued,
	// in-flight cells drain and checkpoint, and the partial table is
	// printed. A second signal exits immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "sweep: interrupt — draining in-flight cells and checkpointing (interrupt again to exit now)")
		cancel()
		<-sig
		os.Exit(130)
	}()

	rep, err := grid.RunDurable(ctx, opts)
	if err != nil {
		return err
	}
	results := rep.Results
	if prog != nil {
		prog.Close()
	}

	if o.timelinePath != "" {
		if err := writeTimelines(o.timelinePath, results); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote %s\n", o.timelinePath)
	}

	if o.csv {
		fmt.Print(scenario.CSV(sc.Name, results))
	} else {
		fmt.Println(scenario.Render(sc.Name, results))
	}
	if rep.Interrupted {
		// The marker rides only on interrupted output: a resumed run
		// finishes clean, so its table diffs bit-identical against an
		// uninterrupted one.
		fmt.Println("# interrupted: partial results — finished cells are checkpointed, re-run with -resume")
	}
	if o.outPath != "" {
		if rep.Interrupted {
			fmt.Fprintf(os.Stderr, "sweep: not writing %s (sweep interrupted)\n", o.outPath)
		} else {
			blob, err := scenario.JSONReport(sc.Name, results)
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.outPath, blob, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "sweep: wrote %s\n", o.outPath)
		}
	}
	if opts.Store != nil {
		// FAILED rows used to be invisible here until the table printed;
		// the %d failed field folds them into the one-line accounting.
		fmt.Fprintf(os.Stderr, "sweep: %d cells: %d cached, executed %d, %d failed, skipped %d (cache %s)\n",
			len(results), rep.Hits, rep.Executed, rep.Failed, rep.Skipped, o.cacheDir)
		if o.verify > 0 {
			fmt.Fprintf(os.Stderr, "sweep: cache-verify: %d verified, %d diverged\n",
				rep.Verified, len(rep.VerifyBad))
		}
	}
	if len(rep.VerifyBad) > 0 {
		return fmt.Errorf("cache verification failed:\n  %s", strings.Join(rep.VerifyBad, "\n  "))
	}
	if rep.Interrupted {
		done := len(results) - rep.Skipped
		if opts.Store != nil {
			return fmt.Errorf("sweep interrupted: %d of %d cells finished and checkpointed; re-run with -resume to continue", done, len(results))
		}
		return fmt.Errorf("sweep interrupted: %d of %d cells finished (run with -cache to make interruptions resumable)", done, len(results))
	}
	return nil
}

// runDegrade runs the degradation sweep of a faulted scenario: the grid
// as written plus a fault-free baseline, joined per point to report
// delivered fraction, victim slowdown and latency inflation per QoS mode
// (-out writes the CSV rows).
func runDegrade(pathOrName string, o sweepOpts) error {
	sc, _, err := loadLayered(pathOrName, o.layers)
	if err != nil {
		return err
	}
	rows, err := scenario.Degrade(sc, scenario.RunOpts{
		Workers:         o.layers.params.Workers,
		DisableIdleSkip: o.layers.params.DisableIdleSkip,
	})
	if err != nil {
		return err
	}
	if o.csv {
		fmt.Print(scenario.DegradeCSV(sc.Name, rows))
	} else {
		fmt.Println(scenario.RenderDegrade(sc.Name, rows))
	}
	if o.outPath != "" {
		if err := os.WriteFile(o.outPath, []byte(scenario.DegradeCSV(sc.Name, rows)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "degrade: wrote %s\n", o.outPath)
	}
	return nil
}
