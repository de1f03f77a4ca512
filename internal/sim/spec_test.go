package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

const specTestYAML = `
version: 1
name: mixed-web
mean_gap: 4
clients:
  - name: web
    rate_fraction: 0.6
    footprint: 256KB
    write_fraction: 0.2
    arrival:
      process: poisson
  - name: batch
    rate_fraction: 0.4
    footprint: 1MB
    write_fraction: 0.5
    sequential_run: 16
    arrival:
      process: gamma
      cv: 2.5
`

func parseSpecT(t *testing.T) *wspec.Spec {
	t.Helper()
	sp, err := wspec.Parse([]byte(specTestYAML))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// recordSpecTrace drains the spec's generator at the given seed into
// a streaming trace file covering at least budget instructions.
func recordSpecTrace(t *testing.T, sp *wspec.Spec, seed int64, budget uint64) string {
	t.Helper()
	gen, err := sp.Generator()
	if err != nil {
		t.Fatal(err)
	}
	gen.Reset(seed)
	path := filepath.Join(t.TempDir(), "w.mtrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.StreamHeader{Name: gen.Name(), Footprint: gen.Footprint()}, false)
	if err != nil {
		t.Fatal(err)
	}
	var gapSum uint64
	var a workload.Access
	for gapSum < budget {
		gen.Next(&a)
		gapSum += uint64(a.Gap)
		if err := w.Write(trace.Record{Addr: a.Addr, Write: a.Write, Gap: a.Gap}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecReplayMatchesDirect records a spec workload's access stream
// at the sim's default seed and checks the trace replay reproduces
// the direct spec-driven run bit for bit. This pins the seed contract
// between mapstrace record-workload and sim.Run: the sim maps seed 0
// to 1, so the recording must too.
func TestSpecReplayMatchesDirect(t *testing.T) {
	sp := parseSpecT(t)
	// Budget covers warmup (Instructions/10) + measure + slack: the
	// replay must not wrap or the streams diverge.
	path := recordSpecTrace(t, sp, 1, 300_000)

	direct, err := Run(Config{WorkloadSpec: sp, Instructions: 200_000, Secure: true, Speculation: true})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Run(Config{TracePath: path, Instructions: 200_000, Secure: true, Speculation: true})
	if err != nil {
		t.Fatal(err)
	}
	direct.Timing, replay.Timing = PhaseTiming{}, PhaseTiming{}
	if !reflect.DeepEqual(direct, replay) {
		t.Errorf("replay diverged from direct run:\n direct: instrs=%d cycles=%d llc=%+v\n replay: instrs=%d cycles=%d llc=%+v",
			direct.Instructions, direct.Cycles, direct.LLC,
			replay.Instructions, replay.Cycles, replay.LLC)
	}
	if direct.Benchmark != "mixed-web" || replay.Benchmark != "mixed-web" {
		t.Errorf("benchmark labels = %q, %q, want both %q", direct.Benchmark, replay.Benchmark, "mixed-web")
	}
}

func TestConfigSpecValidation(t *testing.T) {
	sp := parseSpecT(t)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"spec and trace", Config{WorkloadSpec: sp, TracePath: "x.mtrc"}, "mutually exclusive"},
		{"bench and trace", Config{Benchmark: "canneal", TracePath: "x.mtrc"}, "mutually exclusive"},
		{"bench conflicts with spec name", Config{WorkloadSpec: sp, Benchmark: "canneal"}, "conflicts"},
		{"nothing set", Config{}, "required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run() err = %v, want containing %q", err, tc.want)
			}
		})
	}

	// Benchmark equal to the spec name is fine — that is what
	// fillDefaults produces on the round trip through the wire format.
	cfg := Config{WorkloadSpec: sp, Benchmark: sp.Name, Instructions: 50_000}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run(spec with matching benchmark) = %v", err)
	}
}

func TestCanonicalRejectsTracePath(t *testing.T) {
	cfg := Config{TracePath: "/tmp/some.mtrc", Instructions: 1000}
	if _, err := cfg.Canonical(); err == nil || !strings.Contains(err.Error(), "machine-local") {
		t.Fatalf("Canonical() err = %v, want machine-local rejection", err)
	}
}

func TestCanonicalNormalizesSpec(t *testing.T) {
	sp := parseSpecT(t)
	cfg := Config{WorkloadSpec: sp, Instructions: 50_000}
	c, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.WorkloadSpec == sp {
		t.Error("Canonical() aliased the caller's spec instead of canonicalizing a copy")
	}
	if c.WorkloadSpec.Version != 1 || c.Benchmark != sp.Name {
		t.Errorf("canonical spec version=%d benchmark=%q, want 1/%q", c.WorkloadSpec.Version, c.Benchmark, sp.Name)
	}
	// An invalid spec must be rejected at canonicalization time, not
	// at simulation time — remote daemons hash before they run.
	bad := *sp
	bad.Clients = nil
	cfg = Config{WorkloadSpec: &bad}
	if _, err := cfg.Canonical(); err == nil {
		t.Error("Canonical() accepted a spec with no clients")
	}
}

func TestSuiteRejectsSpecAndTrace(t *testing.T) {
	sp := parseSpecT(t)
	if _, err := RunSuite(Config{WorkloadSpec: sp}, []string{"canneal"}, 1); err == nil {
		t.Error("RunSuite accepted a base config with WorkloadSpec")
	}
	if _, err := RunSuite(Config{TracePath: "x.mtrc"}, []string{"canneal"}, 1); err == nil {
		t.Error("RunSuite accepted a base config with TracePath")
	}
}
