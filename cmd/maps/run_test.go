package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const testSpecYAML = `
name: cli-mix
clients:
  - name: web
    rate_fraction: 0.7
    footprint: 256KB
    write_fraction: 0.2
    arrival:
      process: poisson
  - name: batch
    rate_fraction: 0.3
    footprint: 512KB
    write_fraction: 0.5
    arrival:
      process: gamma
      cv: 2.0
`

func buildMaps(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "maps")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func runMaps(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestRunSpecDeterministicAcrossRepeats exercises the real binary: a
// workload-spec run must emit byte-identical JSON across repeats.
func TestRunSpecDeterministicAcrossRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildMaps(t)
	specPath := filepath.Join(t.TempDir(), "mix.yaml")
	if err := os.WriteFile(specPath, []byte(testSpecYAML), 0o644); err != nil {
		t.Fatal(err)
	}

	args := []string{"run", "-workload-spec", specPath, "-instructions", "100000", "-json"}
	first, _, err := runMaps(t, bin, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(first, `"benchmark": "cli-mix"`) {
		t.Fatalf("output missing spec name:\n%s", first)
	}
	repeat, _, err := runMaps(t, bin, args...)
	if err != nil {
		t.Fatalf("repeat run: %v", err)
	}
	if first != repeat {
		t.Error("repeated runs emitted different JSON")
	}
}

func TestRunFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildMaps(t)
	cases := [][]string{
		{"run"}, // no workload source
		{"run", "-bench", "fft", "-trace", "x.mtrc"},                 // two sources
		{"run", "-trace", "x.mtrc", "-remote", "http://localhost:1"}, // trace is machine-local
	}
	for _, args := range cases {
		if _, _, err := runMaps(t, bin, args...); err == nil {
			t.Errorf("maps %s succeeded, want error", strings.Join(args, " "))
		}
	}
}

// TestRunMetaDefaultsWays: -meta alone builds the Table I 8-way cache,
// exactly as -meta with an explicit -ways 8.
func TestRunMetaDefaultsWays(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildMaps(t)
	base := []string{"run", "-bench", "mcf", "-instructions", "200000", "-json", "-meta", "32KB"}
	implicit, stderr, err := runMaps(t, bin, base...)
	if err != nil {
		t.Fatalf("-meta 32KB: %v\n%s", err, stderr)
	}
	explicit, stderr, err := runMaps(t, bin, append(base, "-ways", "8")...)
	if err != nil {
		t.Fatalf("-meta 32KB -ways 8: %v\n%s", err, stderr)
	}
	if implicit != explicit {
		t.Error("-meta 32KB and -meta 32KB -ways 8 emitted different JSON")
	}
}

// TestRunMetaFlagsNeedMeta: -ways or -content without -meta is a usage
// error (exit 2) that names -meta.
func TestRunMetaFlagsNeedMeta(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildMaps(t)
	for _, flags := range [][]string{{"-content", "counters"}, {"-ways", "4"}} {
		_, stderr, err := runMaps(t, bin, append([]string{"run", "-bench", "mcf"}, flags...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v without -meta: err %v, want exit 2", flags, err)
		}
		if !strings.Contains(stderr, "-meta") {
			t.Errorf("%v without -meta: message %q does not name -meta", flags, stderr)
		}
	}
}

// TestRunUsageExample runs the workload-spec example from the usage
// text: `maps run -workload-spec mixed.yaml -meta 128KB -json`.
func TestRunUsageExample(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildMaps(t)
	specPath := filepath.Join(t.TempDir(), "mixed.yaml")
	if err := os.WriteFile(specPath, []byte(testSpecYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, err := runMaps(t, bin, "run", "-workload-spec", specPath, "-meta", "128KB", "-json", "-instructions", "100000")
	if err != nil {
		t.Fatalf("usage example: %v\n%s", err, stderr)
	}
	if !strings.Contains(out, `"benchmark": "cli-mix"`) {
		t.Fatalf("output missing spec name:\n%s", out)
	}
}
