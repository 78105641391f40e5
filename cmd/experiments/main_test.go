package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timerstudy/internal/analysis"
	"timerstudy/internal/sim"
)

// goldenDuration keeps the determinism test fast; the property it checks is
// duration-independent (every run owns its engine and seeded rand).
const goldenDuration = 30 * sim.Second

// TestParallelMatchesSerial is the golden test for the execution axis: the
// rendered tables and figures must be byte-identical whether the work runs
// serially or on a saturated pool.
func TestParallelMatchesSerial(t *testing.T) {
	render := func(workers int) []byte {
		set, err := computeExperiments(1, goldenDuration, workers, false)
		if err != nil {
			t.Fatalf("computeExperiments: %v", err)
		}
		var buf bytes.Buffer
		writeFigures(&buf, set)
		fmt.Fprint(&buf, analysis.RenderRelations(set.relations))
		return buf.Bytes()
	}
	serial, parallel := render(1), render(8)
	if !bytes.Equal(serial, parallel) {
		sl, pl := bytes.Split(serial, []byte("\n")), bytes.Split(parallel, []byte("\n"))
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if !bytes.Equal(sl[i], pl[i]) {
				t.Fatalf("output diverges at line %d:\nserial:   %s\nparallel: %s", i+1, sl[i], pl[i])
			}
		}
		t.Fatalf("output lengths differ: serial %d lines, parallel %d lines", len(sl), len(pl))
	}
}

// TestSpillMatchesMemory is the golden determinism test for the streaming
// path: every table and figure must be byte-identical whether each trace is
// analyzed from its in-memory buffer or spilled to a v2 file during the run
// and replayed from disk.
func TestSpillMatchesMemory(t *testing.T) {
	render := func(spill bool) []byte {
		set, err := computeExperiments(1, goldenDuration, 4, spill)
		if err != nil {
			t.Fatalf("computeExperiments(spill=%v): %v", spill, err)
		}
		if warnDropped(&bytes.Buffer{}, set) {
			t.Fatalf("golden run dropped records (spill=%v)", spill)
		}
		var buf bytes.Buffer
		writeFigures(&buf, set)
		fmt.Fprint(&buf, analysis.RenderRelations(set.relations))
		return buf.Bytes()
	}
	mem := render(false)
	spilled := render(true)
	if !bytes.Equal(mem, spilled) {
		ml, sl := bytes.Split(mem, []byte("\n")), bytes.Split(spilled, []byte("\n"))
		for i := 0; i < len(ml) && i < len(sl); i++ {
			if !bytes.Equal(ml[i], sl[i]) {
				t.Fatalf("spill output diverges at line %d:\nmemory: %s\nspill:  %s", i+1, ml[i], sl[i])
			}
		}
		t.Fatalf("spill output lengths differ: memory %d lines, spill %d lines", len(ml), len(sl))
	}
}

// TestWarnDropped checks the overflow warning fires per dropped run, names
// the workload and counts, and stays silent on clean sets.
func TestWarnDropped(t *testing.T) {
	var buf bytes.Buffer
	if warnDropped(&buf, experimentSet{}) {
		t.Fatal("clean set reported drops")
	}
	if buf.Len() != 0 {
		t.Fatalf("clean set produced output: %q", buf.String())
	}
	set := experimentSet{dropped: []droppedRun{
		{os: "linux", name: "idle", dropped: 5, total: 100},
		{os: "vista", name: "skype", dropped: 7, total: 200},
	}}
	if !warnDropped(&buf, set) {
		t.Fatal("dropped runs not reported")
	}
	out := buf.String()
	for _, want := range []string{
		"WARNING: linux/idle dropped 5 of 100 trace records",
		"WARNING: vista/skype dropped 7 of 200 trace records",
		"-spill",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("warning output missing %q:\n%s", want, out)
		}
	}
}

// TestProfilesInEveryMode: -cpuprofile and -memprofile wrap the mode
// dispatch, so a fleet run (which returns before the experiments path)
// still leaves both profiles behind. It calls runSet with the flags it sets,
// as run does after flag.Visit: the test binary's own -test.* flags are set
// too, and no mode reads those.
func TestProfilesInEveryMode(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	set := map[string]bool{}
	for name, v := range map[string]string{
		"fleet": "true", "hosts": "4", "fleet-duration": "50ms", "fleet-workers": "1",
		"cpuprofile": cpu, "memprofile": mem,
	} {
		old := flag.Lookup(name).Value.String()
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, old) })
		set[name] = true
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	code := runSet(set)
	os.Stdout = stdout
	if code != 0 {
		t.Fatalf("fleet run exited %d", code)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty: %v", path, err)
		}
	}
}
