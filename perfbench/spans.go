package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the benchmark
// around a public library call. Spans of one unit of work (a pass, a
// request) share Group; Parent links a span to the span that caused it.
type span struct {
	ID     int           `json:"id"`     // IDs start at 1
	Parent int           `json:"parent"` // 0 marks a root
	Group  int           `json:"group"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the run. A disabled tracer records
// nothing and costs one branch per call, so the untraced passes measure the
// same code path.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now()}
}

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, group int) int {
	if t == nil || !t.on {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id (a no-op for 0).
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span and returns its ID.
func (t *tracer) record(name string, parent, group int, start, end time.Time) int {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans)
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time keyed by ID: its duration minus
// the part of its interval covered by its children. Children are clipped to
// the parent and overlapping children (parallel work) count once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][][2]time.Duration)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]time.Duration{lo, hi})
			}
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(children[s.ID])
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// durationsMS collects the durations of the spans named name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
