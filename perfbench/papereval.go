package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

// paper-eval runs the production experiments path as a batch job: the nine
// evaluation traces plus the relations trace, fanned out over nproc
// workers, each reduced inside its worker as cmd/experiments does it. At 10
// virtual minutes per trace the per-timer analysis state is large enough to
// dominate, as it does at the paper's 30.
const (
	evalDuration      = 10 * sim.Minute
	relationsDuration = 3 * sim.Minute // cmd/experiments' relations trace
	// evalWarmup is the trace length of each set-up pass: long enough to
	// touch every code path and grow the heap, short enough to repeat.
	evalWarmup    = 20 * sim.Second
	evalSetupReps = 3
)

// evalDigests are FNV-1a digests of each trace's reduced output at
// defaultSeed; a change that alters any table or figure fails the check.
var evalDigests = map[string]uint64{
	"linux-idle":                0x77f321f1c1a939e0,
	"linux-skype":               0x11386bb47022a5a0,
	"linux-firefox":             0x8889212edd40d1ab,
	"linux-webserver":           0xe3fce874d3a2d1e1,
	"vista-idle":                0xe428ca4a7e62ea15,
	"vista-skype":               0x11f7c77d0f7b3c3d,
	"vista-firefox":             0x5aae828d08907f05,
	"vista-webserver":           0xed73af500288deda,
	"vista-desktop":             0x657111db80283e32,
	"linux-webserver-relations": 0x169372cc05da879,
}

type evalJob struct {
	name string // "<os>-<name>"
	spec workloads.Spec
}

func evalJobs(seed int64, dur sim.Duration) []evalJob {
	var jobs []evalJob
	for _, s := range workloads.EvaluationSpecs(workloads.Config{Seed: seed, Duration: dur}) {
		jobs = append(jobs, evalJob{name: s.OS + "-" + s.Name, spec: s})
	}
	rel := dur
	if dur > relationsDuration {
		rel = relationsDuration
	}
	jobs = append(jobs, evalJob{name: relationsTrace, spec: workloads.Spec{
		OS: "linux", Name: workloads.Webserver, Cfg: workloads.Config{Seed: seed, Duration: rel},
	}})
	return jobs
}

// evalPipeline is computeExperiments' full option set for an OS trace.
func evalPipeline(os string) analysis.Pipeline {
	sOpts := analysis.DefaultScatterOptions()
	sOpts.ExcludeProcesses = []string{"Xorg", "icewm"}
	return analysis.Pipeline{
		Values: analysis.ValueOptions{JiffyBinKernel: os == "linux", MinSharePercent: 2},
		ValuesFiltered: &analysis.ValueOptions{
			JiffyBinKernel: os == "linux", MinSharePercent: 2,
			CollapseCountdowns: true, ExcludeProcesses: []string{"Xorg", "icewm"},
		},
		ValuesUser: &analysis.ValueOptions{
			UserOnly: true, MinSharePercent: 2, CollapseCountdowns: true,
		},
		Scatter:       &sOpts,
		SeriesProcess: "Xorg",
		OriginMinSets: 50,
	}
}

// evalOut is one trace's result within a pass.
type evalOut struct {
	records, events uint64
	timers          int
	done            time.Duration // since the pass started
	digest          uint64
	err             error
}

// evalPass runs every job once on workers goroutines and checks each
// trace's output. Spans go to tr under group.
func evalPass(jobs []evalJob, workers int, tr *tracer, group int, o *outcome, goldens map[string]uint64) []evalOut {
	outs := make([]evalOut, len(jobs))
	start := time.Now()
	pass := tr.begin("eval.pass", 0, group)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := tr.begin("eval.worker", pass, group)
			defer tr.end(ws)
			for i := range next {
				outs[i] = evalOne(jobs[i], tr, ws, group)
				outs[i].done = time.Since(start)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	tr.end(pass)
	for i, j := range jobs {
		out := outs[i]
		want, haveGolden := goldens[j.name]
		o.check(out.err == nil, "%s: %v", j.name, out.err)
		if goldens != nil {
			o.check(haveGolden && out.digest == want, "%s: output digest %#x, committed %#x", j.name, out.digest, want)
		}
	}
	return outs
}

// evalOne simulates one trace and reduces it exactly as computeExperiments
// does, then checks the trace's counters against the analysis.
func evalOne(j evalJob, tr *tracer, parent, group int) evalOut {
	sp := tr.begin("workloads.run."+j.name, parent, group)
	res := j.spec.Run()
	tr.end(sp)
	out := evalOut{records: res.Counters.Total, events: res.Stats.Events}
	if err := checkCounters(res.Counters); err != nil {
		out.err = err
		return out
	}
	src := res.Trace
	var reduced any
	switch {
	case j.name == desktopTrace:
		sp = tr.begin("analysis.rates", parent, group)
		reduced = analysis.SetRates(src, res.Duration, workloads.DesktopGrouper())
		tr.end(sp)
	case j.name == relationsTrace:
		sp = tr.begin("analysis.relations", parent, group)
		reduced = analysis.RenderRelations(analysis.InferRelations(analysis.Lifecycles(src), analysis.InferOptions{}))
		tr.end(sp)
	default:
		sp = tr.begin("analysis.run."+j.name, parent, group)
		rep, err := evalPipeline(res.OS).Run(src)
		tr.end(sp)
		if err != nil {
			out.err = err
			return out
		}
		if err := checkSummary(rep.Summary, res.Counters); err != nil {
			out.err = err
			return out
		}
		out.timers = rep.Summary.Timers
		reduced = rep
	}
	b, err := json.Marshal(reduced)
	if err != nil {
		out.err = err
		return out
	}
	h := fnv.New64a()
	h.Write(b)
	out.digest = h.Sum64()
	return out
}

// checkCounters verifies the sink invariants: nothing dropped and
// sum(ByOp)+Unknown == Total.
func checkCounters(c trace.Counters) error {
	var sum uint64
	for _, n := range c.ByOp {
		sum += n
	}
	switch {
	case c.Dropped != 0:
		return fmt.Errorf("%d of %d records dropped", c.Dropped, c.Total)
	case sum+c.Unknown != c.Total:
		return fmt.Errorf("sum(ByOp)+Unknown = %d, Total = %d", sum+c.Unknown, c.Total)
	}
	return nil
}

// checkSummary verifies that the analysed totals equal the trace counters.
func checkSummary(s analysis.Summary, c trace.Counters) error {
	set := c.ByOp[trace.OpSet] + c.ByOp[trace.OpWait]
	if s.Accesses != c.Total || s.Set != set || s.Canceled != c.ByOp[trace.OpCancel] ||
		s.Expired != c.ByOp[trace.OpExpire] || s.UserSpace+s.Kernel != s.Accesses {
		return fmt.Errorf("summary %+v disagrees with counters %+v", s, c)
	}
	return nil
}

func runPaperEval(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	off := newTracer(false)

	warm := evalJobs(cfg.seed, evalWarmup)
	setups, err := setupCPU(evalSetupReps, func() error {
		evalPass(warm, cfg.workers, off, 0, o, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}

	jobs := evalJobs(cfg.seed, evalDuration)
	var goldens map[string]uint64
	if cfg.seed == defaultSeed {
		goldens = evalDigests
	}
	tr := newTracer(true)
	var rates, cpus, peaks, latencies, tracedCPU, plainCPU []float64
	var lastTraced []evalOut
	err = measure(cfg.budget, passesFor(cfg), func(i int) error {
		traced := cfg.traced && i%2 == 0
		t := off
		if traced {
			t = tr
		}
		pt := startPass()
		outs := evalPass(jobs, cfg.workers, t, i+1, o, goldens)
		cost := pt.stop()
		wall, cpu := cost.wall, cost.cpu
		peaks = append(peaks, cost.peakMB)
		var records uint64
		for _, out := range outs {
			records += out.records
			latencies = append(latencies, ms(out.done))
		}
		rates = append(rates, float64(records)/wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		if traced {
			tracedCPU = append(tracedCPU, cpu.Seconds())
			lastTraced = outs
		} else {
			plainCPU = append(plainCPU, cpu.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	o.set("setup_s", median(setups), "s")
	o.set("cpu_s", median(cpus), "s")
	o.set("peak_rss_mb", median(peaks), "MB")
	o.set("throughput_per_s", median(rates), "1/s")
	setLatency(o, latencies)
	if cfg.traced {
		o.spans = tr.closed()
		evalLayers(o, o.spans, jobs, lastTraced)
		o.set("trace.overhead_pct", overheadPct(tracedCPU, plainCPU), "%")
		o.set("workloads.alloc_bytes_per_record", simAllocPerRecord(jobs), "B")
	}
	return o, nil
}

// evalLayers derives the per-layer metrics from the traced passes' spans.
func evalLayers(o *outcome, spans []span, jobs []evalJob, outs []evalOut) {
	var events, recs uint64
	timers := 0
	for i, out := range outs {
		events += out.events
		if i < len(osTraces) {
			recs += out.records
			timers += out.timers
		}
	}
	var simMS float64
	for _, j := range jobs {
		d := durationsMS(spans, "workloads.run."+j.name)
		o.set("workloads.run_ms."+j.name, median(d), "ms")
		simMS += median(d)
	}
	o.set("sim.events", float64(events), "count")
	o.set("sim.ns_per_event", simMS*1e6/float64(events), "ns")

	var anaMS float64
	for _, t := range osTraces {
		d := median(durationsMS(spans, "analysis.run."+t))
		o.set("analysis.run_ms."+t, d, "ms")
		anaMS += d
	}
	o.set("analysis.rates_ms", median(durationsMS(spans, "analysis.rates")), "ms")
	o.set("analysis.relations_ms", median(durationsMS(spans, "analysis.relations")), "ms")

	o.set("analysis.ns_per_record", anaMS*1e6/float64(recs), "ns")
	o.set("analysis.timers", float64(timers), "count")

	// Straggler: a pass's makespan minus the mean time its workers were
	// busy (worker span minus its self time, which is idle or dispatch).
	self := selfTimes(spans)
	var stragglers []float64
	for _, p := range spans {
		if p.Name != "eval.pass" {
			continue
		}
		var busy []float64
		for _, w := range spans {
			if w.Name == "eval.worker" && w.Parent == p.ID {
				busy = append(busy, ms(w.dur()-self[w.ID]))
			}
		}
		stragglers = append(stragglers, ms(p.dur())-mean(busy))
	}
	o.set("eval.straggler_ms", median(stragglers), "ms")
}

// simAllocPerRecord simulates every trace once more, one at a time, so the
// heap counters attribute allocation to the simulator alone.
func simAllocPerRecord(jobs []evalJob) float64 {
	var bytes, records uint64
	var m0, m1 runtime.MemStats
	for _, j := range jobs {
		runtime.ReadMemStats(&m0)
		res := j.spec.Run()
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		records += res.Counters.Total
	}
	return float64(bytes) / float64(records)
}
