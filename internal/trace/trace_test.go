package trace

import (
	"slices"
	"testing"
	"testing/quick"

	"timerstudy/internal/sim"
)

func TestOriginInterning(t *testing.T) {
	b := NewBuffer(10)
	a := b.Origin("kernel/tcp:retransmit")
	if a2 := b.Origin("kernel/tcp:retransmit"); a2 != a {
		t.Fatalf("re-intern gave %d, want %d", a2, a)
	}
	c := b.Origin("firefox/select")
	if c == a {
		t.Fatal("distinct origins share an ID")
	}
	if got := b.OriginName(a); got != "kernel/tcp:retransmit" {
		t.Fatalf("OriginName = %q", got)
	}
	if got := b.OriginName(9999); got != "?" {
		t.Fatalf("unknown origin = %q, want ?", got)
	}
}

func TestBufferDropsWhenFull(t *testing.T) {
	b := NewBuffer(2)
	for i := 0; i < 5; i++ {
		b.Log(Record{T: sim.Time(i), Op: OpSet})
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	// relayfs semantics: the *first* two records are kept.
	if b.Records()[0].T != 0 || b.Records()[1].T != 1 {
		t.Fatalf("wrong records kept: %+v", b.Records())
	}
	c := b.Counters()
	if c.Total != 5 || c.Dropped != 3 || c.ByOp[OpSet] != 5 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestZeroCapacityCountsOnly(t *testing.T) {
	b := NewBuffer(0)
	b.Log(Record{Op: OpExpire})
	if b.Len() != 0 {
		t.Fatal("stored a record at cap 0")
	}
	if b.Counters().ByOp[OpExpire] != 1 {
		t.Fatal("did not count")
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpInit: "init", OpSet: "set", OpCancel: "cancel", OpExpire: "expire", OpWait: "wait", Op(99): "op(99)"}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestFlags(t *testing.T) {
	r := Record{Flags: FlagUser | FlagDeferrable}
	if !r.IsUser() {
		t.Fatal("IsUser = false")
	}
	if (Record{Flags: FlagDeferrable}).IsUser() {
		t.Fatal("IsUser = true for kernel record")
	}
}

func TestReset(t *testing.T) {
	b := NewBuffer(10)
	id := b.Origin("x")
	b.Log(Record{Op: OpSet, Origin: id})
	b.Reset()
	if b.Len() != 0 || b.Counters().Total != 0 {
		t.Fatal("reset did not clear records/counters")
	}
	if b.Origin("x") != id {
		t.Fatal("reset lost interned origins")
	}
}

// Property: any record survives a binary round trip bit-exactly.
func TestRecordCodecProperty(t *testing.T) {
	f := func(tm int64, id uint64, to int64, pid int32, origin uint32, op uint8, flags uint16) bool {
		r := Record{
			T: sim.Time(tm), TimerID: id, Timeout: to, PID: pid,
			Origin: origin, Op: Op(op), Flags: Flags(flags),
		}
		var buf [RecordSize]byte
		putRecord(buf[:], r)
		return getRecord(buf[:]) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// checkBlocks compares every read path of b against the flat reference
// want: Len, ForEach, ForEachChunk (contents, and a chunk boundary every
// DefaultChunkRecords records as a flat slice would be cut) and Records.
// Records runs last because it may compact the blocks.
func checkBlocks(t *testing.T, b *Buffer, want []Record) {
	t.Helper()
	if b.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(want))
	}
	i := 0
	b.ForEach(func(r Record) {
		if i < len(want) && r != want[i] {
			t.Fatalf("ForEach record %d = %+v, want %+v", i, r, want[i])
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("ForEach delivered %d records, want %d", i, len(want))
	}
	i = 0
	err := b.ForEachChunk(1, func(c Chunk) error {
		if wantLen := min(DefaultChunkRecords, len(want)-i); len(c.Records) != wantLen {
			t.Fatalf("chunk at record %d holds %d records, want %d", i, len(c.Records), wantLen)
		}
		for _, r := range c.Records {
			if r != want[i] {
				t.Fatalf("ForEachChunk record %d = %+v, want %+v", i, r, want[i])
			}
			i++
		}
		return nil
	})
	if err != nil || i != len(want) {
		t.Fatalf("ForEachChunk delivered %d records (err %v), want %d", i, err, len(want))
	}
	if got := b.Records(); !slices.Equal(got, want) {
		t.Fatalf("Records() differs from the reference (len %d, want %d)", len(got), len(want))
	}
}

// logRef logs n distinct records starting at index from into b and
// returns them as the flat reference.
func logRef(b *Buffer, from, n int) []Record {
	ref := make([]Record, 0, n)
	for i := from; i < from+n; i++ {
		r := Record{T: sim.Time(i), TimerID: uint64(i), Op: Op(i % int(nOps)), Timeout: int64(i)}
		b.Log(r)
		ref = append(ref, r)
	}
	return ref
}

// TestBufferBlocksMatchFlatReference walks every Buffer read path across
// block boundaries.
func TestBufferBlocksMatchFlatReference(t *testing.T) {
	const c = DefaultChunkRecords

	t.Run("cap mid-block", func(t *testing.T) {
		capRecords := 2*c + c/2 + 7
		b := NewBuffer(capRecords)
		ref := logRef(b, 0, 3*c)
		if got := b.Counters(); got.Total != 3*c || got.Dropped != uint64(3*c-capRecords) {
			t.Fatalf("counters %+v: want Total %d Dropped %d", got, 3*c, 3*c-capRecords)
		}
		checkBlocks(t, b, ref[:capRecords])
	})

	t.Run("reset then re-log", func(t *testing.T) {
		b := NewBuffer(DefaultCapacity)
		logRef(b, 0, 2*c+5)
		b.Reset()
		if b.Len() != 0 || len(b.sealed) != 0 || cap(b.tail) != c {
			t.Fatalf("after Reset: Len %d, %d sealed blocks, first block cap %d; want 0, 0, %d",
				b.Len(), len(b.sealed), cap(b.tail), c)
		}
		checkBlocks(t, b, logRef(b, 1_000_000, c+3))
	})

	t.Run("reset a capped buffer then re-log", func(t *testing.T) {
		// The short last block must not be reused mid-buffer.
		capRecords := 2*c + 9
		b := NewBuffer(capRecords)
		logRef(b, 0, capRecords)
		b.Reset()
		logRef(b, 0, c+1) // the second block comes from the spares
		b.Reset()
		checkBlocks(t, b, logRef(b, 1_000_000, capRecords+4)[:capRecords])
	})

	t.Run("records then log", func(t *testing.T) {
		b := NewBuffer(DefaultCapacity)
		ref := logRef(b, 0, c+10)
		first := b.Records()
		if !slices.Equal(first, ref) {
			t.Fatal("compacted Records() differs from the reference")
		}
		ref = append(ref, logRef(b, c+10, 2*c)...)
		checkBlocks(t, b, ref)
		if !slices.Equal(first, ref[:c+10]) {
			t.Fatal("logging after Records() changed the returned slice")
		}
	})
}
