package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		wantP  float64
		wantV  float64
		wantOK bool
	}{
		{n: 10, wantOK: false}, // nothing can have 10 beyond it
		{n: 11, wantP: 100.0 / 11, wantV: 1, wantOK: true},
		{n: 100, wantP: 90, wantV: 90, wantOK: true},
		{n: 999, wantP: 100 * 989.0 / 999, wantV: 989, wantOK: true},
		{n: 1000, wantP: 99, wantV: 990, wantOK: true}, // exactly 10 beyond p99
		{n: 5000, wantP: 99, wantV: 4950, wantOK: true},
	} {
		got, ok := tailPercentile(seq(tc.n), 99)
		if ok != tc.wantOK || got.N != tc.n {
			t.Fatalf("n=%d: ok=%v N=%d, want ok=%v N=%d", tc.n, ok, got.N, tc.wantOK, tc.n)
		}
		if !ok {
			continue
		}
		if got.P > tc.wantP+1e-9 || got.P < tc.wantP-1e-6 || got.Value != tc.wantV {
			t.Errorf("n=%d: p%.6f = %v, want p%.6f = %v", tc.n, got.P, got.Value, tc.wantP, tc.wantV)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%.4f", tc.n, beyond, got.P)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

// A stalled operation must raise the latency of the operations due while it
// ran, because latency counts from the due time, not from the send.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const interval = 5 * time.Millisecond
	const stall = 60 * time.Millisecond
	ops := openLoop(time.Now(), interval, 12, nil, func(i int) error {
		if i == 2 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(ops) != 12 {
		t.Fatalf("ran %d ops, want 12", len(ops))
	}
	stallEnd := ops[2].Done
	for i := 3; i < len(ops); i++ {
		op := ops[i]
		if op.Due != time.Duration(i)*interval {
			t.Fatalf("op %d due at %v", i, op.Due)
		}
		if op.Due < stallEnd && op.Latency() < stallEnd-op.Due {
			t.Errorf("op %d due at %v, queued behind the stall until %v, latency only %v",
				i, op.Due, stallEnd, op.Latency())
		}
		if op.Sent < ops[i-1].Done {
			t.Errorf("op %d sent before op %d finished: one connection runs one op at a time", i, i-1)
		}
	}
	if ops[3].Latency() < stall/2 {
		t.Errorf("op 3 latency %v does not show the %v stall", ops[3].Latency(), stall)
	}
	if ops[0].Latency() > stall/2 {
		t.Errorf("op 0 latency %v before any stall", ops[0].Latency())
	}
}

func TestOpenLoopStops(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	if ops := openLoop(time.Now(), time.Millisecond, -1, stop, func(int) error { return nil }); len(ops) != 0 {
		t.Errorf("ran %d ops after stop", len(ops))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		// Two overlapping children (parallel workers) cover [10,70).
		{ID: 2, Parent: 1, Name: "worker", Start: 10 * ms, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "worker", Start: 20 * ms, End: 70 * ms},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "late", Start: 90 * ms, End: 120 * ms},
		// Grandchildren count against their parent, not the root.
		{ID: 5, Parent: 2, Name: "run", Start: 10 * ms, End: 30 * ms},
		{ID: 6, Parent: 2, Name: "run", Start: 40 * ms, End: 50 * ms},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - 60*ms - 10*ms,
		2: 50*ms - 30*ms,
		3: 50 * ms,
		4: 30 * ms,
		5: 20 * ms,
		6: 10 * ms,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerOff(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x", 0, 1)
	tr.end(id)
	tr.record("y", 0, 1, time.Now(), time.Now())
	if id != 0 || len(tr.closed()) != 0 {
		t.Errorf("a disabled tracer recorded spans")
	}
}

// BENCHMARK.json and the program must name the same metrics with the same
// units, or a run's result reads as missing a metric.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, sortedKeys(workloadFuncs); !equal(got, want) {
		t.Errorf("workloads %v, program has %v", got, want)
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Unit != e2eUnits[m.Name] {
			t.Errorf("%s: unit %q, program says %q", m.Name, m.Unit, e2eUnits[m.Name])
		}
	}
	if !equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program has %v", e2e, endToEnd)
	}
	var pl []string
	for _, m := range b.PerLayer {
		pl = append(pl, m.Name)
		if m.Unit != perLayerUnit(m.Name) {
			t.Errorf("%s: unit %q, program says %q", m.Name, m.Unit, perLayerUnit(m.Name))
		}
	}
	if !equal(pl, perLayer()) {
		t.Errorf("per_layer %v, program has %v", pl, perLayer())
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
