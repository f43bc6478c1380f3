package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperArtifactGoldens pins the paper-artifact output of the
// experiment drivers: `noctool -quick all` (tables and CSV), `-quick
// closed` and `-quick ablate` must reproduce the committed goldens byte
// for byte, so a refactor of the drivers, the runner or the engine that
// moves any figure fails here by name.
func TestPaperArtifactGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"quick-all", []string{"-quick", "all"}},
		{"quick-all-csv", []string{"-quick", "-csv", "all"}},
		{"quick-closed", []string{"-quick", "closed"}},
		{"quick-ablate", []string{"-quick", "ablate"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := experimentsMain(tc.args, &got); err != nil {
				t.Fatal(err)
			}
			if got.String() == string(want) {
				return
			}
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("noctool %s drifted from %s.golden at line %d:\ngot:  %q\nwant: %q",
						strings.Join(tc.args, " "), tc.golden, i+1, g, w)
				}
			}
		})
	}
}
