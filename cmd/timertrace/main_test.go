package main

import (
	"os"
	"path/filepath"
	"testing"

	"timerstudy/internal/analysis"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

// TestWriteTraceMatchesInMemoryRun: the file timertrace writes is a v2
// stream whose footer counters are the run's counters and whose analysis
// summary equals the same spec run into an in-memory Buffer.
func TestWriteTraceMatchesInMemoryRun(t *testing.T) {
	cfg := workloads.Config{Seed: 1, Duration: 2 * sim.Minute}
	path := filepath.Join(t.TempDir(), "linux-idle.trace")
	res, err := writeTrace(path, workloads.RunLinux, "idle", cfg, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("streamed run kept an in-memory trace")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := trace.NewStreamReader(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := analysis.Pipeline{}.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	footer, ok := src.Counters()
	if !ok {
		t.Fatal("no counters footer after a full replay")
	}
	if footer != res.Counters {
		t.Fatalf("footer counters %+v, run counters %+v", footer, res.Counters)
	}

	mem := workloads.RunLinux("idle", cfg)
	want, err := analysis.Pipeline{}.Run(mem.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary != want.Summary {
		t.Fatalf("file summary %+v, in-memory summary %+v", got.Summary, want.Summary)
	}
	if footer != mem.Trace.Counters() {
		t.Fatalf("footer counters %+v, in-memory counters %+v", footer, mem.Trace.Counters())
	}
}
