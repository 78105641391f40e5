package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"timerstudy/internal/control"
	"timerstudy/internal/fleet"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// fleet-64: 8 webservers and 56 desktops. Each 200 µs window holds only a
// handful of events, so window dispatch and the barrier dominate.
const (
	fleet64Web      = 8
	fleet64Desktops = 56
	fleet64Duration = 40 * sim.Second
)

// fleet-1024: 128 webservers and 896 desktops, steered through the control
// plane. Per-host work and allocation dominate and barriers are a small
// share.
const (
	fleet1024Web      = 128
	fleet1024Desktops = 896
	fleet1024Duration = sim.Second
)

// fleetSetupReps is how many times set-up builds the fleet (fleet-1024:
// opens the plane at workers=nproc, then aborts it); setup_s is the median.
const fleetSetupReps = 10

// fleetDigests are the fleet-wide trace digests at defaultSeed.
var fleetDigests = map[string]uint64{
	"fleet-64":   0xe45137a2699b1931,
	"fleet-1024": 0xf825b9633882ad4a,
}

// steerScript is scripts/bench.sh's steering: a load spike on every
// desktop, a webserver killed, the adaptive timeout policy, 100 ms
// coalescing, and the webserver restarted.
func steerScript() []control.Command {
	return []control.Command{
		{Window: 10, Kind: control.KindSpike, Host: -1, Arg: 4, Dur: 500 * sim.Millisecond},
		{Window: 20, Kind: control.KindKill, Host: 0},
		{Window: 25, Kind: control.KindPolicy, Host: -1, Arg: fleet.PolicyAdaptive},
		{Window: 30, Kind: control.KindCoalesce, Host: -1, Arg: int64(100 * sim.Millisecond)},
		{Window: 60, Kind: control.KindRestart, Host: 0},
	}
}

// fleetRun is one session's measurements.
type fleetRun struct {
	stats  fleet.RunStats
	digest uint64
	wall   time.Duration // session, build excluded
	alloc  uint64        // heap bytes allocated during the session (traced only)
	gcs    uint32
}

// window summarizes a session's per-window step times, in ms.
type window struct {
	p50  float64
	tail tail // highest percentile up to p99 with minBeyond windows beyond it
}

// timeSteps times each call of step until it returns false, in ms, into
// buf. Each session kind (workers=1, workers=nproc) has one buffer that every
// pass of the run reuses: holding every window's time (200k per fleet-64
// session) across passes made each pass's peak memory grow with the passes
// before it.
func timeSteps(buf *[]float64, step func() bool) {
	b := (*buf)[:0]
	for more := true; more; {
		ts := time.Now()
		more = step()
		b = append(b, ms(time.Since(ts)))
	}
	*buf = b
}

// summarize sorts a session's window times and takes their median and tail;
// it runs after the pass is timed.
func summarize(steps []float64) window {
	sort.Float64s(steps)
	t, _ := tailPercentile(steps, 99)
	return window{p50: percentile(steps, 50), tail: t}
}

// fleetSession builds the topology and runs one whole session, timing every
// window.
func fleetSession(top fleet.Topology, end sim.Time, workers int, buf *[]float64, tr *tracer, parent, group int) fleetRun {
	var r fleetRun
	sp := tr.begin("fleet.build", parent, group)
	f := top.Build()
	tr.end(sp)

	var m0, m1 runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&m0)
	}
	sp = tr.begin(fmt.Sprintf("fleet.session.w%d", workers), parent, group)
	t0 := time.Now()
	s := f.StartSession(end, workers)
	timeSteps(buf, s.Step)
	r.stats = s.Finish()
	r.wall = time.Since(t0)
	tr.end(sp)
	if tr.on {
		runtime.ReadMemStats(&m1)
		r.alloc, r.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	}
	r.digest = f.Digest()
	return r
}

func runFleet64(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	top := fleet.Topology{Webservers: fleet64Web, Desktops: fleet64Desktops, Seed: cfg.seed}
	end := sim.Time(fleet64Duration)
	off, tr := newTracer(false), newTracer(true)
	var fm fleetMetrics
	var err error
	fm.setups, err = setupCPU(fleetSetupReps, func() error {
		top.Build()
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = measure(cfg.budget, passesFor(cfg), func(i int) error {
		traced := cfg.traced && i%2 == 0
		t := off
		if traced {
			t = tr
		}
		pt := startPass()
		pass := t.begin("fleet.pass", 0, i+1)
		serial := fleetSession(top, end, 1, &fm.serialBuf, t, pass, i+1)
		par := fleetSession(top, end, cfg.workers, &fm.parBuf, t, pass, i+1)
		t.end(pass)
		cost := pt.stop()
		checkFleet(o, cfg, "fleet-64", serial, par)
		fm.add(serial, par, cost, traced)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fm.report(o, cfg.traced)
	o.spans = tr.closed()
	return o, nil
}

// checkFleet verifies that the parallel pass reproduced the serial one and,
// at the default seed, the committed digest.
func checkFleet(o *outcome, cfg runConfig, name string, serial, par fleetRun) {
	o.check(par.digest == serial.digest && par.stats == serial.stats,
		"%s: workers=%d digest %#x stats %+v, workers=1 digest %#x stats %+v",
		name, cfg.workers, par.digest, par.stats, serial.digest, serial.stats)
	if cfg.seed == defaultSeed {
		want, ok := fleetDigests[name]
		o.check(ok && serial.digest == want, "%s: digest %#x, committed %#x", name, serial.digest, want)
	}
}

// fleetMetrics accumulates both fleet workloads' measurements over passes.
type fleetMetrics struct {
	setups, cpus, peaks, rates, serialRates []float64 // setups: CPU s of one build
	tracedCPU, plainCPU, gcs                []float64
	steps, tracedSteps, tracedSerialSteps   []window  // workers=nproc, except Serial
	last                                    fleetRun  // a traced workers=1 session
	serialBuf, parBuf                       []float64 // the last pass's window times
}

func (fm *fleetMetrics) add(serial, par fleetRun, cost passCost, traced bool) {
	cpu := cost.cpu
	fm.cpus = append(fm.cpus, cpu.Seconds())
	fm.peaks = append(fm.peaks, cost.peakMB)
	fm.rates = append(fm.rates, float64(par.stats.Events)/par.wall.Seconds())
	fm.serialRates = append(fm.serialRates, float64(serial.stats.Events)/serial.wall.Seconds())
	parSteps, serialSteps := summarize(fm.parBuf), summarize(fm.serialBuf)
	fm.steps = append(fm.steps, parSteps)
	if traced {
		fm.tracedCPU = append(fm.tracedCPU, cpu.Seconds())
		fm.tracedSteps = append(fm.tracedSteps, parSteps)
		fm.tracedSerialSteps = append(fm.tracedSerialSteps, serialSteps)
		fm.gcs = append(fm.gcs, float64(serial.gcs+par.gcs))
		fm.last = serial
	} else {
		fm.plainCPU = append(fm.plainCPU, cpu.Seconds())
	}
}

func (fm *fleetMetrics) report(o *outcome, traced bool) {
	o.set("setup_s", median(fm.setups), "s")
	o.set("cpu_s", median(fm.cpus), "s")
	o.set("peak_rss_mb", median(fm.peaks), "MB")
	o.set("throughput_per_s", median(fm.rates), "1/s")
	p50, tail := windowMedians(fm.steps)
	o.set("latency_p50_ms", p50, "ms")
	o.set("latency_tail_ms", tail, "ms")
	fmt.Fprintf(os.Stderr, "perfbench: latency tail is p%.2f of %d windows, median over %d passes\n",
		fm.steps[0].tail.P, fm.steps[0].tail.N, len(fm.steps))
	if !traced {
		return
	}
	st := fm.last.stats
	o.set("fleet.build_ms", median(fm.setups)*1e3, "ms")
	o.set("fleet.events_per_s", median(fm.rates), "1/s")
	o.set("fleet.serial_events_per_s", median(fm.serialRates), "1/s")
	p50, tail = windowMedians(fm.tracedSteps)
	o.set("fleet.step_us.p50", p50*1e3, "us")
	o.set("fleet.step_us.p99", tail*1e3, "us")
	p50, tail = windowMedians(fm.tracedSerialSteps)
	o.set("fleet.serial_step_us.p50", p50*1e3, "us")
	o.set("fleet.serial_step_us.p99", tail*1e3, "us")
	o.set("fleet.windows", float64(st.Windows), "count")
	o.set("fleet.events_per_window", float64(st.Events)/float64(st.Windows), "count")
	o.set("fleet.messages_sent", float64(st.Sent), "count")
	o.set("fleet.messages_lost", float64(st.Lost), "count")
	o.set("fleet.alloc_bytes_per_event", float64(fm.last.alloc)/float64(st.Events), "B")
	o.set("fleet.gc_cycles", median(fm.gcs), "count")
	o.set("trace.overhead_pct", overheadPct(fm.tracedCPU, fm.plainCPU), "%")
}

// windowMedians is the median over sessions of each session's median and
// tail window time.
func windowMedians(ws []window) (p50, tail float64) {
	var p50s, tails []float64
	for _, w := range ws {
		p50s, tails = append(p50s, w.p50), append(tails, w.tail.Value)
	}
	return median(p50s), median(tails)
}

// planeRun is one control-plane session's measurements.
type planeRun struct {
	fleetRun
	applied    int
	checkpoint []byte
	ckptTime   time.Duration
}

// planeSession runs the steered fleet through the control plane. When
// ckptAt > 0 it checkpoints to memory at that window.
func planeSession(spec control.Spec, workers, ckptAt int, buf *[]float64, tr *tracer, parent, group int) (planeRun, error) {
	var r planeRun
	sp := tr.begin("control.new_plane", parent, group)
	p, err := control.NewPlane(spec, control.WithWorkers(workers))
	tr.end(sp)
	if err != nil {
		return r, err
	}
	for _, c := range steerScript() {
		if ok, reason := p.Enqueue(c); !ok {
			return r, fmt.Errorf("enqueue %s@%d: %s", c.Kind, c.Window, reason)
		}
	}
	var m0, m1 runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&m0)
	}
	sp = tr.begin(fmt.Sprintf("control.session.w%d", workers), parent, group)
	t0 := time.Now()
	var ckptErr error
	timeSteps(buf, func() bool {
		more := p.Advance()
		if ckptAt > 0 && p.Windows() == ckptAt {
			csp := tr.begin("control.checkpoint", sp, group)
			tc := time.Now()
			var ck bytes.Buffer
			ckptErr = trace.WriteCheckpoint(&ck, p.Checkpoint("midpoint"))
			r.ckptTime = time.Since(tc)
			tr.end(csp)
			r.checkpoint = ck.Bytes()
		}
		return more && ckptErr == nil
	})
	if ckptErr != nil {
		p.Abort()
		return r, fmt.Errorf("write checkpoint: %w", ckptErr)
	}
	r.stats = p.Finish()
	r.wall = time.Since(t0) - r.ckptTime
	tr.end(sp)
	if tr.on {
		runtime.ReadMemStats(&m1)
		r.alloc, r.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	}
	for _, pt := range p.DrainPatches() {
		if pt.Applied {
			r.applied++
		}
	}
	r.digest = p.Fleet().Digest()
	return r, nil
}

func runFleet1024(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	spec := control.Spec{Webservers: fleet1024Web, Desktops: fleet1024Desktops, Seed: cfg.seed, End: fleet1024Duration}
	off, tr := newTracer(false), newTracer(true)
	var fm fleetMetrics
	var readMS, resumeMS, ckptMS, ckptBytes []float64
	applied := 0
	var err error
	fm.setups, err = setupCPU(fleetSetupReps, func() error {
		p, err := control.NewPlane(spec, control.WithWorkers(cfg.workers))
		if err != nil {
			return err
		}
		p.Abort()
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = measure(cfg.budget, passesFor(cfg), func(i int) error {
		traced := cfg.traced && i%2 == 0
		t := off
		if traced {
			t = tr
		}
		pt := startPass()
		pass := t.begin("fleet.pass", 0, i+1)
		serial, err := planeSession(spec, 1, 0, &fm.serialBuf, t, pass, i+1)
		if err != nil {
			return err
		}
		par, err := planeSession(spec, cfg.workers, serial.stats.Windows/2, &fm.parBuf, t, pass, i+1)
		if err != nil {
			return err
		}
		checkFleet(o, cfg, "fleet-1024", serial.fleetRun, par.fleetRun)

		// Resume from the midpoint checkpoint to a verified plane, then
		// finish it: the final digest must match the uninterrupted run.
		rs := t.begin("control.resume_total", pass, i+1)
		t0 := time.Now()
		cp, err := trace.ReadCheckpoint(bytes.NewReader(par.checkpoint))
		tRead := time.Since(t0)
		var p *control.Plane
		if err == nil {
			p, err = control.Resume(cp, control.WithWorkers(cfg.workers))
		}
		tResume := time.Since(t0)
		t.end(rs)
		o.check(err == nil, "fleet-1024: resume: %v", err)
		if err == nil {
			p.Finish()
			d := p.Fleet().Digest()
			o.check(d == par.digest, "fleet-1024: resumed digest %#x, uninterrupted %#x", d, par.digest)
		}
		cost := pt.stop()

		fm.add(serial.fleetRun, par.fleetRun, cost, traced)
		if traced {
			readMS = append(readMS, ms(tRead))
			resumeMS = append(resumeMS, ms(tResume-tRead))
			ckptMS = append(ckptMS, ms(par.ckptTime))
			ckptBytes = append(ckptBytes, float64(len(par.checkpoint)))
			applied = par.applied
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fm.report(o, cfg.traced)
	o.spans = tr.closed()
	if cfg.traced {
		p50, _ := windowMedians(fm.tracedSteps) // the workers=nproc plane's Advance
		o.set("control.advance_us.p50", p50*1e3, "us")
		o.set("control.commands_applied", float64(applied), "count")
		o.set("control.checkpoint_ms", median(ckptMS), "ms")
		o.set("control.checkpoint_bytes", median(ckptBytes), "B")
		o.set("control.read_checkpoint_ms", median(readMS), "ms")
		o.set("control.resume_ms", median(resumeMS), "ms")
	}
	return o, nil
}
