package rocksalt_test

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIPipeline exercises the tool chain end to end: generate a
// compliant binary, generate the DFA table bundle, verify the binary with
// both grammar-compiled and table-loaded checkers, and confirm the unsafe
// corpus is rejected — all through the real executables.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binaries")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }

	for _, tool := range []string{"rocksalt", "naclgen", "dfagen", "x86sim"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	img := filepath.Join(dir, "img.bin")
	if out, err := exec.Command(bin("naclgen"), "-n", "300", "-o", img).CombinedOutput(); err != nil {
		t.Fatalf("naclgen: %v\n%s", err, out)
	}

	tables := filepath.Join(dir, "tables.bin")
	if out, err := exec.Command(bin("dfagen"), "-o", tables).CombinedOutput(); err != nil {
		t.Fatalf("dfagen: %v\n%s", err, out)
	}

	out, err := exec.Command(bin("rocksalt"), img).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "SAFE") {
		t.Fatalf("rocksalt (grammar): %v\n%s", err, out)
	}
	out, err = exec.Command(bin("rocksalt"), "-tables", tables, img).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "SAFE") {
		t.Fatalf("rocksalt (tables): %v\n%s", err, out)
	}

	// Legacy RSLT1 bundles (component DFAs only, fused on load) must
	// still be accepted through the same flag.
	tablesV1 := filepath.Join(dir, "tables_v1.bin")
	if out, err := exec.Command(bin("dfagen"), "-format", "1", "-o", tablesV1).CombinedOutput(); err != nil {
		t.Fatalf("dfagen -format 1: %v\n%s", err, out)
	}
	out, err = exec.Command(bin("rocksalt"), "-tables", tablesV1, img).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "SAFE") {
		t.Fatalf("rocksalt (v1 tables): %v\n%s", err, out)
	}

	// A file that is not a table bundle at all must fail version
	// sniffing with a clear diagnostic, not a decode panic or a verdict.
	notTables := filepath.Join(dir, "not_tables.bin")
	if err := os.WriteFile(notTables, []byte("GARBAGE BYTES HERE"), 0o644); err != nil {
		t.Fatal(err)
	}
	msg0, err := exec.Command(bin("rocksalt"), "-tables", notTables, img).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("rocksalt -tables on garbage: want exit 2, got %v\n%s", err, msg0)
	}
	if !strings.Contains(string(msg0), "unknown table bundle version") {
		t.Errorf("garbage bundle diagnostic missing version message: %q", msg0)
	}

	// Parallel verification must agree with the sequential run.
	for _, j := range []string{"0", "4"} {
		out, err = exec.Command(bin("rocksalt"), "-j", j, img).CombinedOutput()
		if err != nil || !strings.Contains(string(out), "SAFE") {
			t.Fatalf("rocksalt -j %s: %v\n%s", j, err, out)
		}
	}

	// An empty input file is a usage error (exit 2), not a verdict.
	empty := filepath.Join(dir, "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin("rocksalt"), empty)
	msg, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("rocksalt on empty file: want exit 2, got %v", err)
	}
	if !strings.Contains(string(msg), "empty") {
		t.Errorf("empty-file message not descriptive: %q", msg)
	}

	// x86sim matches rocksalt's behavior on empty input (exit 2, usage
	// error) instead of wrapping the CS limit to 0xffffffff.
	cmd = exec.Command(bin("x86sim"), empty)
	msg, err = cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("x86sim on empty file: want exit 2, got %v", err)
	}
	if !strings.Contains(string(msg), "empty") {
		t.Errorf("x86sim empty-file message not descriptive: %q", msg)
	}

	// An expired -timeout interrupts verification: exit 3, no verdict,
	// and in particular never SAFE.
	cmd = exec.Command(bin("rocksalt"), "-timeout", "1ns", img)
	msg, err = cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Errorf("rocksalt -timeout 1ns: want exit 3, got %v\n%s", err, msg)
	}
	if strings.Contains(string(msg), "SAFE") || !strings.Contains(string(msg), "INTERRUPTED") {
		t.Errorf("interrupted run output wrong: %q", msg)
	}

	// The unsafe corpus must be rejected with exit status 1.
	unsafeDir := filepath.Join(dir, "unsafe")
	if out, err := exec.Command(bin("naclgen"), "-unsafe", unsafeDir).CombinedOutput(); err != nil {
		t.Fatalf("naclgen -unsafe: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(unsafeDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("unsafe corpus missing: %v", err)
	}
	for _, e := range entries {
		cmd := exec.Command(bin("rocksalt"), "-q", filepath.Join(unsafeDir, e.Name()))
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("rocksalt on %s: want exit 1, got %v", e.Name(), err)
		}
	}

	// -stats prints the per-run engine record; -json emits the verdict
	// machine-readably with the stats embedded.
	out, err = exec.Command(bin("rocksalt"), "-stats", img).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "lane batches") {
		t.Errorf("rocksalt -stats missing engine record: %v\n%s", err, out)
	}
	out, err = exec.Command(bin("rocksalt"), "-json", img).CombinedOutput()
	if err != nil || !strings.Contains(string(out), `"safe": true`) ||
		!strings.Contains(string(out), `"bytes_scanned"`) {
		t.Errorf("rocksalt -json output wrong: %v\n%s", err, out)
	}

	// -metrics-addr serves Prometheus metrics, expvar and pprof for the
	// life of the process; -linger keeps a one-shot run scrapable.
	srv := exec.Command(bin("rocksalt"), "-metrics-addr", "127.0.0.1:0", "-linger", "30s", "-q", img)
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	// The address is logged before the verify runs, so its counters are
	// not final yet; "lingering" is logged after "verify done", and once
	// it appears the scrape below sees the finished run.
	var addr string
	lingering := false
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "addr="); i >= 0 && addr == "" {
			addr = strings.Fields(line[i+len("addr="):])[0]
		}
		if strings.Contains(line, "msg=lingering") {
			lingering = true
			break
		}
	}
	if addr == "" {
		t.Fatal("rocksalt -metrics-addr never logged its address")
	}
	if !lingering {
		t.Fatal("rocksalt -linger never logged that it is lingering")
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	if m := get("/metrics"); !strings.Contains(m, "rocksalt_verify_runs_total 1") ||
		!strings.Contains(m, "# TYPE rocksalt_verify_duration_ns histogram") {
		t.Errorf("/metrics exposition missing run counters:\n%.800s", m)
	}
	if v := get("/debug/vars"); !strings.Contains(v, `"rocksalt"`) {
		t.Errorf("/debug/vars missing the rocksalt expvar:\n%.400s", v)
	}
	if p := get("/debug/pprof/cmdline"); !strings.Contains(p, "rocksalt") {
		t.Errorf("/debug/pprof/cmdline wrong:\n%q", p)
	}

	// A tampered image: flip a byte of the compliant image's first
	// instruction and require rejection with the structured diagnostic
	// (kind + offset + byte window) on the non-quiet path.
	data, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 0xc3
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(bin("rocksalt"), "-q", bad).Run(); err == nil {
		t.Error("tampered image must be rejected")
	}
	diag, err := exec.Command(bin("rocksalt"), bad).CombinedOutput()
	if err == nil {
		t.Error("tampered image must be rejected on the diagnostic path")
	}
	for _, want := range []string{"REJECTED", "offset", "bytes at"} {
		if !strings.Contains(string(diag), want) {
			t.Errorf("diagnostic output missing %q:\n%s", want, diag)
		}
	}
}
