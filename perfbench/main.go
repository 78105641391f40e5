// Command perfbench is the repository's benchmark. It drives the timer-study
// library through its public functions on four workloads and prints every
// metric by name with its unit, after checking each workload's output.
//
//	bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, measured from spans the benchmark records around its calls into
// each layer. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md explains the
// workloads and the metric map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed output digests were taken at;
// heldOutSeed is kept for confirming a claimed gain on inputs not used
// while the change was written.
const (
	defaultSeed = 1
	heldOutSeed = 20081
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	budget  time.Duration // measured phase
	traced  bool
	workers int // nproc: pool and fleet workers
}

// outcome is what a workload hands back: its checks and every metric it
// measured, end-to-end and per-layer alike.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	spans             []span // the traced passes' spans
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one checked operation, failing it (with a note on stderr)
// when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

var workloadFuncs = map[string]func(runConfig) (*outcome, error){
	"paper-eval": runPaperEval,
	"fleet-64":   runFleet64,
	"fleet-1024": runFleet1024,
	"serve-live": runServeLive,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: paper-eval, fleet-64, fleet-1024 or serve-live")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	traceFl := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	fn, ok := workloadFuncs[*workload]
	if !ok || *seconds <= 0 || (*traceFl != 0 && *traceFl != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", sortedKeys(workloadFuncs))
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *traceFl == 1,
		workers: runtime.NumCPU(),
	}
	printHost(*workload, cfg)

	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if cfg.traced {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", *workload, cfg.seed))
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(out.spans), path)
	}
	names, unitOf := endToEnd, func(name string) string { return e2eUnits[name] }
	if cfg.traced {
		names, unitOf = perLayer(), perLayerUnit
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metric)}
	for _, name := range names {
		m, ok := out.metrics[name]
		switch {
		case ok:
		case cfg.traced:
			// A layer this workload does not run: reported as 0 so every
			// traced run prints the same names (README.md, "Per-layer").
			m = metric{Value: 0, Unit: perLayerUnit(name)}
		default:
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, name)
			return 1
		}
		if m.Unit != unitOf(name) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: unit %q, want %q\n", name, m.Unit, unitOf(name))
			return 1
		}
		res.Metrics[name] = m
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was checked")
		return 1
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printHost records the facts a result depends on, on the line before it.
func printHost(workload string, cfg runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	host := map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"traced":     cfg.traced,
		"seconds":    cfg.budget.Seconds(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"source":     sourceDigest("."),
	}
	b, _ := json.Marshal(map[string]any{"host": host}) // a map of scalars always marshals
	fmt.Println(string(b))
}

// spansDir is where a traced run writes its spans, relative to the
// repository root run.sh runs from; it is inside the ignored build
// directory.
const spansDir = ".bench_build/spans"

// writeSpans writes spans as one JSON array; times are ns since the run's
// tracer started.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// sourceDigest identifies the code under test where no commit is stamped
// (a checkout without version control): a SHA-256 over the path and
// contents of every .go file and go.mod below root, in path order. The
// first 16 hex digits are kept; "unknown" if the tree cannot be read.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, the build directory
		case !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod"):
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	h := sha256.New()
	for _, p := range paths { // WalkDir visits in lexical order
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// measure runs passes until the budget is spent: a new pass starts only if
// the previous pass's length still fits, and at least minPasses run. Each
// pass starts from a collected heap with free memory returned to the OS,
// so it neither pays for the previous pass's garbage nor counts it in its
// own peak.
func measure(budget time.Duration, minPasses int, pass func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(start)+last > budget {
			return nil
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := pass(i); err != nil {
			return err
		}
		last = time.Since(t0)
	}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampleEvery is how often a pass samples the memory it holds.
const memSampleEvery = 5 * time.Millisecond

// setupCPU runs step reps times, each from a collected heap, and returns
// the process CPU seconds each took; setup_s is their median.
func setupCPU(reps int, step func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		c0 := cpuTime()
		if err := step(); err != nil {
			return nil, err
		}
		out = append(out, (cpuTime() - c0).Seconds())
	}
	return out, nil
}

// passCost is what one pass cost the process.
type passCost struct {
	wall, cpu time.Duration
	// peakMB is the most memory the Go runtime held from the OS during
	// the pass (mapped minus released to the OS: the resident heap,
	// stacks and runtime structures), sampled every memSampleEvery.
	peakMB float64
}

// passTimer measures one pass; a goroutine samples memory until stop.
type passTimer struct {
	wall time.Time
	cpu0 time.Duration
	halt chan struct{}
	peak chan uint64
}

func startPass() *passTimer {
	p := &passTimer{wall: time.Now(), cpu0: cpuTime(), halt: make(chan struct{}), peak: make(chan uint64, 1)}
	go p.sample()
	return p
}

func (p *passTimer) sample() {
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	tick := time.NewTicker(memSampleEvery)
	defer tick.Stop()
	var peak uint64
	for {
		metrics.Read(samples)
		peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
		select {
		case <-p.halt:
			p.peak <- peak
			return
		case <-tick.C:
		}
	}
}

func (p *passTimer) stop() passCost {
	c := passCost{wall: time.Since(p.wall), cpu: cpuTime() - p.cpu0}
	close(p.halt)
	c.peakMB = float64(<-p.peak) / 1e6
	fmt.Fprintf(os.Stderr, "perfbench: pass wall %.3fs cpu %.3fs peak %.1fMB\n", c.wall.Seconds(), c.cpu.Seconds(), c.peakMB)
	return c
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// passesFor is the fewest passes a run makes: a traced run alternates
// traced and untraced passes, so it needs one of each.
func passesFor(cfg runConfig) int {
	if cfg.traced {
		return 2
	}
	return 1
}

// setLatency sets the latency metrics from samples in ms: the median, and
// the highest percentile up to p99 with at least minBeyond samples beyond
// it (its percentile and sample count go to stderr).
func setLatency(o *outcome, samples []float64) {
	o.set("latency_p50_ms", median(samples), "ms")
	t, ok := tailPercentile(samples, 99)
	if !ok {
		t = tail{P: 100, Value: sortedCopy(samples)[len(samples)-1], N: len(samples)}
	}
	fmt.Fprintf(os.Stderr, "perfbench: latency tail is p%.2f of %d samples\n", t.P, t.N)
	o.set("latency_tail_ms", t.Value, "ms")
}

// overheadPct compares the CPU time of traced and untraced passes of one
// run: how much the spans cost.
func overheadPct(traced, plain []float64) float64 {
	return (median(traced)/median(plain) - 1) * 100
}
