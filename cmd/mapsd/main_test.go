package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
)

// TestSIGTERMDrainsRunningJobs exercises the real binary: with a job
// mid-simulation, SIGTERM must drain it to completion (exit 0,
// "drained cleanly") rather than killing it.
func TestSIGTERMDrainsRunningJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "mapsd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// Reserve a port; the tiny close-to-bind window is acceptable in
	// a test.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var logs bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1", "-drain-timeout", "2m")
	cmd.Stderr = &logs
	cmd.Stdout = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	waitUp := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(waitUp) {
			t.Fatalf("daemon never came up:\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A job big enough to still be running when the signal lands.
	body := `{"type":"run","config":{"benchmark":"libquantum","instructions":5000000}}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, buf.String())
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	// Ensure it is actually running (left the queue) before signalling.
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		var cur struct {
			State string `json:"state"`
		}
		json.Unmarshal(buf.Bytes(), &cur)
		if cur.State == "running" {
			break
		}
		if cur.State != "queued" || time.Now().After(deadline) {
			t.Fatalf("job state %q before signal", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("mapsd exited %v (drain should exit 0):\n%s", err, logs.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("mapsd did not exit after SIGTERM:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Fatalf("no clean-drain log; the running job was not drained:\n%s", logs.String())
	}
}

// TestFaultPointsMatchRobustnessDoc: the fault points this binary
// links — every instrumented package registers its points at
// initialization — are exactly the point rows of the table in
// docs/ROBUSTNESS.md, so the documented -faults names are the ones
// ArmSpec accepts.
func TestFaultPointsMatchRobustnessDoc(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "ROBUSTNESS.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "## Fault-injection framework")
	if start < 0 {
		t.Fatal("docs/ROBUSTNESS.md has no fault-injection section")
	}
	section = section[start:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	row := regexp.MustCompile("(?m)^\\|\\s*`([a-z]+\\.[a-z]+)`\\s*\\|")
	var documented []string
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	sort.Strings(documented)
	if registered := faults.Names(); !reflect.DeepEqual(registered, documented) {
		t.Errorf("registered fault points %v, documented %v", registered, documented)
	}
}
