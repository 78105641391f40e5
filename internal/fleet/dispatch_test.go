package fleet

import (
	"runtime"
	"testing"
	"time"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// gateTopology is a 64-host fleet whose quiet windows sit far below
// parallelMinEvents; spikeGate pushes every desktop's request rate high
// enough for a stretch of the run that its windows climb above it.
func gateTopology() Topology {
	return Topology{
		Webservers: 8,
		Desktops:   56,
		Threads:    8,
		Seed:       11,
		NewSink:    func(string) trace.Sink { return trace.NewHashSink() },
	}
}

const (
	gateEnd         = sim.Time(300 * sim.Millisecond)
	gateSpikeWindow = 250 // 50 ms in, at the default 200 µs lookahead
)

func spikeGate(f *Fleet, s *Session) {
	if s.Windows() != gateSpikeWindow {
		return
	}
	for _, h := range f.Hosts() {
		h.Steer(Directive{Kind: DirSpike, Arg: 64, Dur: sim.Duration(150 * sim.Millisecond)})
	}
}

// TestDispatchGateDeterminism: a run whose window load crosses
// parallelMinEvents in both directions dispatches some windows to the pool
// and some serially, and still produces the serial run's digest and
// RunStats at every worker count.
func TestDispatchGateDeterminism(t *testing.T) {
	run := func(workers int) (uint64, RunStats, *Session) {
		f := gateTopology().Build()
		s := f.StartSession(gateEnd, workers)
		for {
			spikeGate(f, s)
			if !s.Step() {
				break
			}
		}
		return f.Digest(), s.Finish(), s
	}
	base, baseStats, s1 := run(1)
	if s1.pooled != 0 {
		t.Fatalf("workers=1 dispatched %d windows to a pool", s1.pooled)
	}
	seen := map[int]bool{1: true}
	for _, w := range []int{2, runtime.NumCPU(), 4 * runtime.NumCPU()} {
		if seen[w] {
			continue
		}
		seen[w] = true
		got, stats, s := run(w)
		if got != base || stats != baseStats {
			t.Errorf("workers=%d: digest %016x stats %+v, serial %016x %+v", w, got, stats, base, baseStats)
		}
		// The first window always goes to the pool; the spike must
		// bring the gate back to it later in the run.
		if s.pooled < 2 || s.serial == 0 {
			t.Errorf("workers=%d: pooled %d serial %d windows, want both branches", w, s.pooled, s.serial)
		}
		t.Logf("workers=%d: %d pooled, %d serial of %d windows", w, s.pooled, s.serial, stats.Windows)
	}
}

// TestEachZeroAlloc: a window dispatched to the pool allocates nothing —
// the advance function, job, chunk counter and WaitGroup are all bound
// once — and a route over empty outboxes allocates nothing either.
func TestEachZeroAlloc(t *testing.T) {
	f := Topology{Webservers: 8, Desktops: 56, Seed: 1}.Build()
	s := f.StartSession(sim.Time(sim.Second), 2)
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Step()
	}
	// Every host already sits at the current horizon, so each window
	// below is pure dispatch: 64 hosts, zero events.
	if allocs := testing.AllocsPerRun(200, func() { f.each(2, f.advanceFn) }); allocs != 0 {
		t.Errorf("pooled each over %d hosts allocates %.1f objects/op, want 0", len(f.Hosts()), allocs)
	}
	for _, h := range f.Hosts() {
		if len(h.outbox) != 0 {
			t.Fatalf("host %s has %d unrouted messages at a barrier", h.Name, len(h.outbox))
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { f.route() }); allocs != 0 {
		t.Errorf("route over empty outboxes allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPoolGoroutinesExit: the worker pool's goroutines exit when the
// session ends, by Finish or by a mid-run Close.
func TestPoolGoroutinesExit(t *testing.T) {
	const workers = 4
	for _, finish := range []bool{true, false} {
		baseline := runtime.NumGoroutine()
		f := hashTopology().Build()
		s := f.StartSession(sim.Time(200*sim.Millisecond), workers)
		for i := 0; i < 20; i++ {
			s.Step()
		}
		if finish {
			s.Finish()
		} else {
			s.Close()
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("finish=%v: %d goroutines 5 s after the session ended, baseline %d",
					finish, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
