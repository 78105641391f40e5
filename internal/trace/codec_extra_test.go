package trace

import (
	"bytes"
	"testing"

	"timerstudy/internal/sim"
)

// TestRecordSizeGovernsEncoding pins the exported RecordSize constant to the
// payload of a v2 'R' frame: with every record in one chunk, the stream is
// the header, one 'O' frame, one 'R' frame of RecordSize bytes per record,
// and the counters footer. DESIGN.md §"Trace format" quotes the same
// constant.
func TestRecordSizeGovernsEncoding(t *testing.T) {
	const nrec = 7
	var buf bytes.Buffer
	sw := NewStreamWriterSize(&buf, nrec)
	o := sw.Origin("kernel/x")
	for i := 0; i < nrec; i++ {
		sw.Log(Record{T: sim.Time(i), TimerID: 1, Op: OpSet, Origin: o})
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	const (
		originFrame = 1 + 4 + 4 + len("kernel/x")
		footer      = 1 + countersSize
	)
	want := headerSize + originFrame + 1 + 4 + nrec*RecordSize + footer
	if buf.Len() != want {
		t.Fatalf("encoded %d bytes, want %d (RecordSize=%d drifted from the encoder?)",
			buf.Len(), want, RecordSize)
	}
}

func TestEncodeDecodeLargeTrace(t *testing.T) {
	const nrec = 50_000
	b := NewBuffer(nrec)
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	s := Tee(b, sw)
	for i := 0; i < nrec; i++ {
		s.Log(Record{T: sim.Time(i), TimerID: uint64(i % 100), Op: Op(i % 4),
			Origin: s.Origin("o" + string(rune('a'+i%26)))})
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got, names := replaySerial(t, buf.Bytes())
	if len(got) != nrec {
		t.Fatalf("len = %d", len(got))
	}
	for i := 0; i < nrec; i += 9973 {
		if got[i] != b.Records()[i] {
			t.Fatalf("record %d mismatch", i)
		}
		if want := b.OriginName(got[i].Origin); names[i] != want {
			t.Fatalf("record %d origin: %q != %q", i, names[i], want)
		}
	}
}
