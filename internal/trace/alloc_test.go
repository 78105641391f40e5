package trace

import (
	"io"
	"runtime"
	"testing"
	"unsafe"
)

// TestLogZeroAlloc guards the steady states of the Log hot path: while the
// buffer is within a block, once it is at capacity (the drop path), and
// while it refills blocks kept by Reset. All must be allocation-free;
// otherwise the only cost is one block allocation per DefaultChunkRecords
// records (TestLogBytesPerRecord).
// Run under -count=1 in CI (scripts/check.sh) so a regression fails.
func TestLogZeroAlloc(t *testing.T) {
	rec := Record{T: 1, Op: OpSet, TimerID: 7, Timeout: 42, Origin: 1}

	within := NewBuffer(preallocRecords)
	if allocs := testing.AllocsPerRun(1000, func() { within.Log(rec) }); allocs != 0 {
		t.Errorf("Log within prealloc allocates %.1f objects/op, want 0", allocs)
	}

	full := NewBuffer(8)
	for i := 0; i < 8; i++ {
		full.Log(rec)
	}
	if allocs := testing.AllocsPerRun(1000, func() { full.Log(rec) }); allocs != 0 {
		t.Errorf("Log at capacity allocates %.1f objects/op, want 0", allocs)
	}
	if full.Len() != 8 {
		t.Fatalf("capacity overrun: Len = %d", full.Len())
	}
	if full.Counters().Dropped == 0 {
		t.Fatal("drop path not exercised")
	}

	// After Reset, refilling the blocks an earlier pass opened reuses them.
	reused := NewBuffer(DefaultCapacity)
	refill := func() {
		reused.Reset()
		for i := 0; i < 2*DefaultChunkRecords+5; i++ {
			reused.Log(rec)
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(3, refill); allocs != 0 {
		t.Errorf("refilling three blocks after Reset allocates %.1f objects/pass, want 0", allocs)
	}

	disabled := NewBuffer(0)
	if allocs := testing.AllocsPerRun(1000, func() { disabled.Log(rec) }); allocs != 0 {
		t.Errorf("Log with tracing disabled allocates %.1f objects/op, want 0", allocs)
	}
}

// TestNewBufferPreallocBounded pins the memory contract: small buffers
// reserve exactly their capacity, huge buffers reserve only the bounded
// first block (a full DefaultCapacity buffer must not commit 512 MiB
// eagerly), and a disabled buffer reserves nothing.
func TestNewBufferPreallocBounded(t *testing.T) {
	for _, tc := range []struct{ capRecords, want int }{
		{100, 100},
		{DefaultCapacity, preallocRecords},
		{0, 0},
	} {
		b := NewBuffer(tc.capRecords)
		if got := cap(b.tail); got != tc.want || len(b.sealed) != 0 {
			t.Errorf("NewBuffer(%d) reserves %d records in %d extra blocks, want %d in 0",
				tc.capRecords, got, len(b.sealed), tc.want)
		}
	}
}

// TestLogBytesPerRecord bounds what filling a buffer past its first block
// allocates, in units of the record itself: block storage costs one
// Record per record, and the block list and origin table must stay within
// 10 % on top. Append growth of one flat slice costs several times that.
func TestLogBytesPerRecord(t *testing.T) {
	const n = 4 * DefaultChunkRecords
	rec := Record{T: 1, Op: OpSet, TimerID: 7, Timeout: 42, Origin: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewBuffer(DefaultCapacity)
	for i := 0; i < n; i++ {
		b.Log(rec)
	}
	runtime.ReadMemStats(&after)
	if b.Len() != n {
		t.Fatalf("Len = %d, want %d", b.Len(), n)
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / n
	if limit := 1.1 * float64(unsafe.Sizeof(Record{})); perRecord > limit {
		t.Fatalf("filling %d records allocated %.1f B/record, want <= %.1f", n, perRecord, limit)
	}
}

func BenchmarkLog(b *testing.B) {
	rec := Record{T: 1, Op: OpSet, TimerID: 7, Timeout: 42, Origin: 1}
	b.Run("store", func(b *testing.B) {
		buf := NewBuffer(DefaultCapacity)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Log(rec)
		}
	})
	b.Run("at-capacity", func(b *testing.B) {
		buf := NewBuffer(64)
		for i := 0; i < 64; i++ {
			buf.Log(rec)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Log(rec)
		}
	})
}

// TestStreamWriterLogZeroAlloc guards the spill hot path: once origins are
// interned, Log must be allocation-free both within a chunk and across chunk
// flushes (putRecord goes through the writer's scratch buffer; the frames
// land in the bufio buffer or the underlying writer without per-record
// allocation). Run without -race in CI, like the other alloc guards.
func TestStreamWriterLogZeroAlloc(t *testing.T) {
	rec := Record{T: 1, Op: OpSet, TimerID: 7, Timeout: 42, Origin: 1}

	within := NewStreamWriter(io.Discard) // default chunk far exceeds the run count
	within.Origin("kernel/x")
	if allocs := testing.AllocsPerRun(1000, func() { within.Log(rec) }); allocs != 0 {
		t.Errorf("Log within a chunk allocates %.1f objects/op, want 0", allocs)
	}

	flushing := NewStreamWriterSize(io.Discard, 64) // ~15 flushes over the run
	flushing.Origin("kernel/x")
	if allocs := testing.AllocsPerRun(1000, func() { flushing.Log(rec) }); allocs != 0 {
		t.Errorf("Log across chunk flushes allocates %.1f objects/op, want 0", allocs)
	}
	if err := flushing.Close(); err != nil {
		t.Fatal(err)
	}
	if c := flushing.Counters(); c.Dropped != 0 || c.Total == 0 {
		t.Fatalf("counters %+v: StreamWriter must never drop", c)
	}
}
