package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEntry is one pending event in refQueue.
type refEntry struct {
	when  Time
	seq   uint64
	label int
}

// refQueue is the cross-check's reference model: a slice kept sorted by
// (when, seq), the engine's documented dequeue order.
type refQueue []refEntry

func (q *refQueue) push(x refEntry) {
	i := sort.Search(len(*q), func(i int) bool {
		y := (*q)[i]
		return y.when > x.when || (y.when == x.when && y.seq > x.seq)
	})
	*q = append(*q, refEntry{})
	copy((*q)[i+1:], (*q)[i:])
	(*q)[i] = x
}

// remove deletes the entry with the given label, reporting whether it was
// pending.
func (q *refQueue) remove(label int) bool {
	for i, x := range *q {
		if x.label == label {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return true
		}
	}
	return false
}

func (q *refQueue) pop() refEntry {
	x := (*q)[0]
	*q = (*q)[1:]
	return x
}

// TestEventQueueCrossCheck drives the engine through a deterministic stream
// of 10k mixed At/Cancel/Reschedule/Step operations and checks every firing,
// every Cancel verdict and the pending count against refQueue.
func TestEventQueueCrossCheck(t *testing.T) {
	type firing struct {
		at    Time
		label int
	}
	const ops = 10000
	rng := rand.New(rand.NewSource(99))
	e := NewEngine(0)
	var model refQueue
	var seq uint64
	var got, want []firing
	var handles []Event
	canceled := uint64(0)
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			// Schedule with a spread of horizons: same-instant ties,
			// sub-millisecond deltas, and seconds to minutes out.
			l := len(handles)
			var d Duration
			switch rng.Intn(4) {
			case 0:
				d = 0 // ties at the current instant
			case 1:
				d = Duration(rng.Int63n(int64(2 * Millisecond)))
			case 2:
				d = Duration(rng.Int63n(int64(5 * Second)))
			default:
				d = Duration(rng.Int63n(int64(10 * Minute)))
			}
			handles = append(handles, e.After(d, "x", func() {
				got = append(got, firing{e.Now(), l})
			}))
			seq++
			model.push(refEntry{when: e.Now().Add(d), seq: seq, label: l})
		case r < 7 && len(handles) > 0:
			// Cancel a random handle; stale ones must be no-ops.
			l := rng.Intn(len(handles))
			ok := e.Cancel(handles[l])
			if wantOK := model.remove(l); ok != wantOK {
				t.Fatalf("op %d: Cancel(%d) = %v, model says %v", i, l, ok, wantOK)
			}
			if ok {
				canceled++
			}
		case r < 9 && len(handles) > 0:
			// Reschedule a random still-pending handle, earlier or later.
			l := rng.Intn(len(handles))
			if h := handles[l]; h.Pending() {
				at := e.Now().Add(Duration(rng.Int63n(int64(30 * Second))))
				e.Reschedule(h, at)
				if !model.remove(l) {
					t.Fatalf("op %d: handle %d pending in the engine but not the model", i, l)
				}
				seq++
				model.push(refEntry{when: at, seq: seq, label: l})
			}
		default:
			if ran := e.Step(); ran != (len(model) > 0) {
				t.Fatalf("op %d: Step = %v with %d modelled events pending", i, ran, len(model))
			}
			if len(model) > 0 {
				x := model.pop()
				want = append(want, firing{x.when, x.label})
			}
		}
		if e.Pending() != len(model) {
			t.Fatalf("op %d: engine has %d pending, model %d", i, e.Pending(), len(model))
		}
	}
	e.RunAll()
	for len(model) > 0 {
		x := model.pop()
		want = append(want, firing{x.when, x.label})
	}
	if len(want) == 0 {
		t.Fatal("no events fired; the cross-check exercised nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("firing counts differ: engine %d, model %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d differs: engine %+v, model %+v", i, got[i], want[i])
		}
	}
	if st := e.Stats(); st.Events != uint64(len(want)) || st.Canceled != canceled {
		t.Fatalf("stats = %+v, want %d events and %d cancels", st, len(want), canceled)
	}
}

// TestEngineZeroAllocSteadyState is the acceptance guard: once the freelist
// is warm, the At+Step hot path must run without a single heap allocation.
// Run under -count=1 in CI (scripts/check.sh) so a regression fails the
// build.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(0)
	fn := func() {}
	// Warm the freelist and the heap queue's backing slice.
	for i := 0; i < 64; i++ {
		e.After(Duration(i)*Microsecond, "warm", fn)
	}
	e.RunAll()
	if allocs := testing.AllocsPerRun(1000, func() {
		e.After(50*Microsecond, "hot", fn)
		e.Step()
	}); allocs != 0 {
		t.Errorf("At+Step steady state allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		ev := e.After(50*Microsecond, "hot", fn)
		e.Reschedule(ev, e.Now().Add(80*Microsecond))
		if !e.Cancel(ev) {
			t.Fatal("cancel failed")
		}
	}); allocs != 0 {
		t.Errorf("After+Reschedule+Cancel allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEventAllocsPlateau pins the freelist accounting: node allocations
// track the high-water mark of simultaneously pending events, not the total
// scheduled.
func TestEventAllocsPlateau(t *testing.T) {
	e := NewEngine(0)
	fn := func() {}
	for i := 0; i < 8; i++ {
		e.After(Duration(i)*Millisecond, "w", fn)
	}
	e.RunAll()
	if got := e.Stats().EventAllocs; got != 8 {
		t.Fatalf("EventAllocs = %d, want 8", got)
	}
	for round := 0; round < 100; round++ {
		for i := 0; i < 8; i++ {
			e.After(Duration(i)*Millisecond, "w", fn)
		}
		e.RunAll()
	}
	if got := e.Stats().EventAllocs; got != 8 {
		t.Fatalf("EventAllocs grew to %d after recycling, want plateau at 8", got)
	}
}

// TestStaleHandleSafety checks that handles to fired events stay inert after
// their node is recycled for an unrelated event: Pending is false, Cancel is
// a no-op, and the new event is unaffected.
func TestStaleHandleSafety(t *testing.T) {
	e := NewEngine(0)
	first := e.After(Millisecond, "first", func() {})
	e.RunAll()
	ran := false
	second := e.After(Millisecond, "second", func() { ran = true })
	if first.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if e.Cancel(first) {
		t.Fatal("stale handle canceled something")
	}
	if !second.Pending() {
		t.Fatal("stale cancel disturbed the live event")
	}
	e.RunAll()
	if !ran {
		t.Fatal("live event did not run")
	}
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(0)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(50*Microsecond, "bench", fn)
		e.Step()
	}
}

// BenchmarkEnginePendingLoad measures scheduling against a populated queue,
// where each push and cancel pays O(log n) sift costs.
func BenchmarkEnginePendingLoad(b *testing.B) {
	e := NewEngine(0)
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.After(Duration(i+1)*Millisecond, "load", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(Duration(i%4000)*Millisecond+Microsecond, "bench", fn)
		e.Cancel(ev)
	}
}
