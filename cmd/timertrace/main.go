// Command timertrace runs one of the paper's workloads on a simulated
// Linux or Vista system and writes the resulting binary timer trace — the
// equivalent of the paper's relayfs/ETW collection step.
//
// The records spill to the output file in the chunked v2 format while the
// simulation runs, so memory stays bounded by live timers and the trace can
// exceed RAM. With -emit the same record stream is also teed to a live
// timerstat -serve service. After the run the file is read back and its
// summary printed.
//
// Usage:
//
//	timertrace -os linux -workload firefox -duration 30m -seed 1 -o firefox.trace
//	timertrace -os vista -workload desktop -o desktop.trace
//
// Workloads: idle, skype, firefox, webserver; the Vista personality also
// offers "desktop" (the 90-second Figure 1 trace).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/version"
	"timerstudy/internal/workloads"
)

// personalities maps -os values to their workload runners.
var personalities = map[string]func(string, workloads.Config) *workloads.Result{
	"linux": workloads.RunLinux,
	"vista": workloads.RunVista,
}

func run() int {
	osName := flag.String("os", "linux", "personality: linux or vista")
	workload := flag.String("workload", "idle", "idle, skype, firefox, webserver, desktop (vista only)")
	duration := flag.Duration("duration", 30*time.Minute, "virtual trace duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	out := flag.String("o", "", "output trace file (default <os>-<workload>.trace)")
	emit := flag.String("emit", "", "also stream the trace to a live timerstat -serve service at this base URL")
	emitStream := flag.String("emit-stream", "", "stream name for -emit (default <os>-<workload>)")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return 0
	}

	runWorkload, ok := personalities[*osName]
	if !ok {
		fmt.Fprintf(os.Stderr, "timertrace: unknown personality %q\n", *osName)
		return 2
	}
	cfg := workloads.Config{Seed: *seed, Duration: sim.FromStd(*duration)}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%s.trace", *osName, *workload)
	}
	streamName := *emitStream
	if streamName == "" {
		streamName = fmt.Sprintf("%s-%s", *osName, *workload)
	}

	res, err := writeTrace(path, runWorkload, *workload, cfg, *emit, streamName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "timertrace: %v\n", err)
		return 1
	}

	c := res.Counters
	fmt.Printf("%s/%s: %v of virtual time, %d records (%d dropped) -> %s\n",
		res.OS, res.Name, res.Duration, c.Total-c.Dropped, c.Dropped, path)

	// Summarize from the written file: the records were never held in
	// memory, so replay them.
	s, err := func() (analysis.Summary, error) {
		rf, err := os.Open(path)
		if err != nil {
			return analysis.Summary{}, err
		}
		defer rf.Close()
		src, err := trace.NewStreamReader(rf)
		if err != nil {
			return analysis.Summary{}, err
		}
		rep, err := analysis.Pipeline{}.Run(src)
		if err != nil {
			return analysis.Summary{}, err
		}
		return rep.Summary, nil
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "timertrace: reading back %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("timers=%d concurrency=%d accesses=%d user=%d kernel=%d set=%d expired=%d canceled=%d\n",
		s.Timers, s.Concurrency, s.Accesses, s.UserSpace, s.Kernel, s.Set, s.Expired, s.Canceled)
	return 0
}

// writeTrace runs workload through runWorkload with its records streaming to
// path in the v2 format and, when emit is set, teed to the live service at
// that base URL under streamName. It returns the run's result.
func writeTrace(path string, runWorkload func(string, workloads.Config) *workloads.Result,
	workload string, cfg workloads.Config, emit, streamName string) (*workloads.Result, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sw := trace.NewStreamWriter(f)
	cfg.Sink = sw
	var hs *trace.HTTPSink
	if emit != "" {
		hs, err = trace.NewHTTPSink(emit, streamName, trace.HTTPSinkOptions{})
		if err != nil {
			return nil, fmt.Errorf("-emit: %w", err)
		}
		cfg.Sink = trace.Tee(sw, hs)
	}
	res := runWorkload(workload, cfg)
	if hs != nil {
		if err := hs.Close(); err != nil {
			return nil, fmt.Errorf("-emit: %w", err)
		}
	}
	if err := sw.Close(); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("closing %s: %w", path, err)
	}
	return res, nil
}

func main() {
	os.Exit(run())
}
