package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"tanoq/internal/scenario"
)

// layersFor parses CLI arguments into the resolver layers the sweep
// subcommand would stack, with the same shared flags.
func layersFor(t *testing.T, args ...string) layerOpts {
	t.Helper()
	fs := newFlagSet("test", "test [flags]", "")
	sim := addSimFlags(fs)
	profile := fs.String("profile", "", "")
	var set multiFlag
	fs.Var(&set, "set", "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	explicit := explicitFlags(fs)
	return layerOpts{sim: sim, explicit: explicit, params: sim.params(explicit), profile: *profile, set: set}
}

// TestLoadLayeredPrecedence drives the CLI's layer stack over a built-in
// and a file alike: -quick < explicit -seed/-warmup/-measure < -set, with
// TANOQ_SET_* below all of them and above the scenario's own keys.
func TestLoadLayeredPrecedence(t *testing.T) {
	const file = "../../examples/sweep/fig4-quick.json"
	for _, tc := range []struct {
		name    string
		arg     string
		args    []string
		envSeed string // TANOQ_SET_SEEDS; "" leaves it unset
		warmup  int
		measure int
		seeds   []uint64
	}{
		{"builtin as declared", "fig4a", nil, "", 20_000, 100_000, []uint64{42}},
		{"builtin -quick", "fig4a", []string{"-quick"}, "", 3_000, 15_000, []uint64{42}},
		{"builtin flags over -quick", "fig4a", []string{"-quick", "-warmup", "500", "-seed", "9"}, "", 500, 15_000, []uint64{9}},
		{"builtin -set over flags", "fig4a", []string{"-quick", "-warmup", "500", "-set", "warmup=700", "-set", "seeds=[1, 2]"}, "", 700, 15_000, []uint64{1, 2}},
		{"builtin env", "workload1", nil, "7", 20_000, 100_000, []uint64{7}},
		{"builtin -seed over env", "workload1", []string{"-seed", "9"}, "7", 20_000, 100_000, []uint64{9}},
		{"builtin -set over env", "workload1", []string{"-set", "seed=3"}, "7", 20_000, 100_000, []uint64{3}},
		{"file as declared", file, nil, "", 3_000, 15_000, []uint64{42}},
		{"file flags over -quick", file, []string{"-quick", "-measure", "800", "-seed", "9"}, "", 3_000, 800, []uint64{9}},
		{"file -set over flags", file, []string{"-measure", "800", "-set", "measure=900", "-set", "warmup=100"}, "", 100, 900, []uint64{42}},
		{"file env", file, nil, "7", 3_000, 15_000, []uint64{7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.envSeed != "" {
				t.Setenv("TANOQ_SET_SEEDS", tc.envSeed)
			}
			sc, res, err := loadLayered(tc.arg, layersFor(t, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			if sc.Warmup != tc.warmup || sc.Measure != tc.measure || !reflect.DeepEqual(sc.Seeds, tc.seeds) {
				t.Errorf("warmup %d measure %d seeds %v, want %d %d %v",
					sc.Warmup, sc.Measure, sc.Seeds, tc.warmup, tc.measure, tc.seeds)
			}
			if res == nil {
				t.Error("no resolution record")
			}
		})
	}
}

// TestLoadLayeredBuiltinProfileAndExplain pins that built-ins ride the
// same resolver as files: an unknown profile is ErrUnknownProfile, and
// -explain names the built-in as the origin of its keys.
func TestLoadLayeredBuiltinProfileAndExplain(t *testing.T) {
	for _, lo := range []struct {
		arg  string
		opts layerOpts
	}{
		{"fig4a#nope", layersFor(t)},
		{"fig4a", layersFor(t, "-profile", "nope")},
	} {
		if _, _, err := loadLayered(lo.arg, lo.opts); !errors.Is(err, scenario.ErrUnknownProfile) {
			t.Errorf("%s: err %v, want ErrUnknownProfile", lo.arg, err)
		}
	}
	_, res, err := loadLayered("fig4a", layersFor(t, "-quick"))
	if err != nil {
		t.Fatal(err)
	}
	explain := res.Explain()
	for _, want := range []string{"# scenario fig4a", "builtin:fig4a", "# cli -quick"} {
		if !strings.Contains(explain, want) {
			t.Errorf("explain lacks %q:\n%s", want, explain)
		}
	}
	if _, _, err := loadLayered("fig9", layersFor(t)); err == nil || !strings.Contains(err.Error(), "no file and no built-in") {
		t.Errorf("unknown built-in: err %v", err)
	}
}
