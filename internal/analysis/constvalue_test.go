package analysis

import (
	"math/rand"
	"testing"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// closedUse is one use of a synthetic timer: its timeout and how it ends.
type closedUse struct {
	v   sim.Duration
	end EndKind
}

// useTrace logs one timer's uses as trace records: each expired use
// re-arms gap after its expiry, each canceled use is canceled a quarter of
// the way in, and a reset use is ended by the next arming.
func useTrace(uses []closedUse, gap sim.Duration) *trace.Buffer {
	b := trace.NewBuffer(2*len(uses) + 1)
	o := b.Origin("app/select")
	at := sim.Time(0)
	for _, u := range uses {
		b.Log(trace.Record{T: at, Op: trace.OpSet, TimerID: 1, Timeout: int64(u.v), Origin: o, Flags: trace.FlagUser})
		switch u.end {
		case EndExpired:
			at = at.Add(u.v)
			b.Log(trace.Record{T: at, Op: trace.OpExpire, TimerID: 1, Origin: o, Flags: trace.FlagUser})
			at = at.Add(gap)
		case EndCanceled:
			at = at.Add(u.v / 4)
			b.Log(trace.Record{T: at, Op: trace.OpCancel, TimerID: 1, Origin: o, Flags: trace.FlagUser})
			at = at.Add(sim.Millisecond)
		case EndReset:
			at = at.Add(u.v / 4)
		}
	}
	return b
}

// spread returns n uses with distinct timeouts from+k*step, all ending in
// end.
func spread(n int, from, step sim.Duration, end EndKind) []closedUse {
	out := make([]closedUse, n)
	for k := range out {
		out[k] = closedUse{v: from + sim.Duration(k)*step, end: end}
	}
	return out
}

// repeat returns every use of uses k times over.
func repeat(uses []closedUse, k int) []closedUse {
	var out []closedUse
	for i := 0; i < k; i++ {
		out = append(out, uses...)
	}
	return out
}

func concat(parts ...[]closedUse) []closedUse {
	var out []closedUse
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestShardClassifyManyDistinctValues pins shard.classify to the Classify
// oracle on timers whose distinct timeouts spill far past the inline slots
// — the select/poll countdown shape — including the median landing in the
// spilled values, tied counts, and the 90 %-within-tolerance boundary.
func TestShardClassifyManyDistinctValues(t *testing.T) {
	const us = sim.Microsecond
	cases := []struct {
		name      string
		uses      []closedUse
		shuffle   bool
		gap       sim.Duration
		wantConst bool
		wantClass Class
	}{{
		// Four far outliers fill the inline slots first; the median and
		// the tight cluster are all spilled values.
		name: "median in spilled values",
		uses: concat(
			[]closedUse{{sim.Second, EndExpired}, {2 * sim.Second, EndExpired}, {3 * sim.Second, EndExpired}, {4 * sim.Second, EndExpired}},
			spread(1000, 500*sim.Millisecond, us, EndExpired)),
		wantConst: true,
		wantClass: ClassPeriodic,
	}, {
		name:      "countdown",
		uses:      spread(3000, 0, sim.Millisecond, EndCanceled),
		wantConst: false,
		wantClass: ClassOther,
	}, {
		// Every value is used three times and the two clusters tie, so
		// the median is the first value past the n/2 boundary.
		name:      "tied counts split",
		uses:      repeat(concat(spread(300, 100*sim.Millisecond, 3*us, EndCanceled), spread(300, 5*sim.Second, us, EndCanceled)), 3),
		shuffle:   true,
		wantConst: false,
		wantClass: ClassOther,
	}, {
		name:      "tied counts within tolerance",
		uses:      repeat(spread(200, 250*sim.Millisecond, 10*us, EndCanceled), 5),
		shuffle:   true,
		wantConst: true,
		wantClass: ClassTimeout,
	}, {
		name: "exactly 90% within tolerance",
		uses: concat(
			spread(50, 100*sim.Millisecond, 10*us, EndExpired),
			spread(900, 500*sim.Millisecond, us, EndExpired),
			spread(50, 10*sim.Second, sim.Millisecond, EndExpired)),
		shuffle:   true,
		gap:       10 * sim.Millisecond,
		wantConst: true,
		wantClass: ClassDelay,
	}, {
		name: "just under 90% within tolerance",
		uses: concat(
			spread(51, 100*sim.Millisecond, 10*us, EndExpired),
			spread(899, 500*sim.Millisecond, us, EndExpired),
			spread(50, 10*sim.Second, sim.Millisecond, EndExpired)),
		shuffle:   true,
		gap:       10 * sim.Millisecond,
		wantConst: false,
		wantClass: ClassOther,
	}, {
		name:      "resets",
		uses:      concat(spread(600, sim.Second, us, EndReset), spread(20, sim.Second, us, EndExpired)),
		wantConst: true,
		wantClass: ClassDeferred,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.shuffle {
				rand.New(rand.NewSource(1)).Shuffle(len(tc.uses), func(i, j int) {
					tc.uses[i], tc.uses[j] = tc.uses[j], tc.uses[i]
				})
			}
			b := useTrace(tc.uses, tc.gap)
			lives := Lifecycles(b)
			if len(lives) != 1 {
				t.Fatalf("%d lifecycles, want 1", len(lives))
			}
			sh := Pipeline{}.newShard()
			err := b.ForEachChunk(1, func(c trace.Chunk) error {
				for _, r := range c.Records {
					sh.record(r, c.Origins)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			st := sh.timer(0)
			if len(st.tvMore) < 100 {
				t.Fatalf("only %d spilled values; the case does not exercise the spill", len(st.tvMore))
			}
			if got, want := sh.constantValue(st), constantValue(lives[0].Uses); got != want || got != tc.wantConst {
				t.Fatalf("shard constantValue = %v, oracle %v, case expects %v", got, want, tc.wantConst)
			}
			if got, want := sh.classify(st), Classify(lives[0]); got != want || got != tc.wantClass {
				t.Fatalf("shard.classify = %v, Classify = %v, case expects %v", got, want, tc.wantClass)
			}
		})
	}
}

// countdownShard returns a shard and one timer carrying d distinct closed
// timeouts, as a select/poll countdown timer does.
func countdownShard(d int) (*shard, *streamTimer) {
	sh := Pipeline{}.newShard()
	st := &streamTimer{}
	for k := d; k > 0; k-- {
		st.addTval(sim.Duration(k) * sim.Millisecond)
		st.closed++
	}
	return sh, st
}

// TestShardConstantValueZeroAlloc guards the classification fold: once the
// shard's scratch slice has held a timer's values, classifying it again
// allocates nothing. Run under -count=1 in CI (scripts/check.sh).
func TestShardConstantValueZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	sh, st := countdownShard(3000)
	sh.constantValue(st)
	if avg := testing.AllocsPerRun(100, func() { sh.constantValue(st) }); avg != 0 {
		t.Fatalf("constantValue allocated %.2f per call with a warm scratch slice, want 0", avg)
	}
}

// BenchmarkShardConstantValueCountdown classifies one timer with the
// ~30,000 distinct timeouts linux-skype's select countdown produces in ten
// virtual minutes.
func BenchmarkShardConstantValueCountdown(b *testing.B) {
	sh, st := countdownShard(30_000)
	sh.constantValue(st) // warm the scratch slice
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.constantValue(st)
	}
}
