package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestEngineFlag runs the built binary once per -engine value against
// the same image and pins the contract: every engine returns the same
// verdict (exit 0 here), the stepper that ran lands in the -json stats
// engine field, and an unknown engine is a usage error (exit 2) — the
// names of deleted steppers (strided, lanes, swar, scalar) among them.
func TestEngineFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()

	// A few KiB of NOPs: compliant, large enough to engage the lane
	// engines (whole-bundle regions of several bundles per shard).
	img := filepath.Join(dir, "nops.bin")
	nops := make([]byte, 8192)
	for i := range nops {
		nops[i] = 0x90
	}
	if err := os.WriteFile(img, nops, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		engine string // -engine value
		want   string // stats engine census name
	}{
		{"auto", "lanes"},
		{"reference", "reference"},
	}
	for _, tc := range cases {
		t.Run(tc.engine, func(t *testing.T) {
			out, err := exec.Command(bin, "-engine", tc.engine, "-json", img).Output()
			if err != nil {
				t.Fatalf("rocksalt -engine %s: %v", tc.engine, err)
			}
			var v struct {
				Safe  bool `json:"safe"`
				Stats struct {
					Engine string `json:"engine"`
				} `json:"stats"`
			}
			if err := json.Unmarshal(out, &v); err != nil {
				t.Fatalf("bad -json output: %v\n%s", err, out)
			}
			if !v.Safe {
				t.Fatalf("-engine %s rejected a compliant image", tc.engine)
			}
			if v.Stats.Engine != tc.want {
				t.Errorf("-engine %s resolved to %q, want %q", tc.engine, v.Stats.Engine, tc.want)
			}
		})
	}

	for name, engine := range map[string]string{"unknown": "turbo", "strided": "strided", "lanes": "lanes", "swar": "swar", "scalar": "scalar"} {
		t.Run(name, func(t *testing.T) {
			err := exec.Command(bin, "-engine", engine, "-q", img).Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("-engine %s: got %v, want exit 2", engine, err)
			}
		})
	}
}
