package trace

import (
	"bytes"
	"strings"
	"testing"

	"timerstudy/internal/sim"
)

// The decoder faces files we did not write: truncated copies, corrupted
// headers, and records carrying operation or flag values this version never
// emits. None of that may panic; valid streams must round-trip.

// mutate returns a copy of b with the byte at i set to v.
func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

// decodeAll opens data as a v2 stream and replays every record.
func decodeAll(data []byte) error {
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	return sr.ForEach(func(Record) {})
}

func TestDecodeAdversarial(t *testing.T) {
	// buildV2(3, 8): header (8 bytes), then an 'O' frame whose u32 count
	// ends at byte 12 and whose first origin length ends at byte 16.
	valid := buildV2(t, 3, 8)
	if recs, _ := replaySerial(t, valid); len(recs) != 3 {
		t.Fatalf("valid stream replayed %d records, want 3", len(recs))
	}
	cases := []struct {
		name  string
		input []byte
		want  string // substring of the expected error
	}{
		{"empty", nil, "reading header"},
		{"bad magic", mutate(valid, 0, 'X'), "bad magic"},
		{"future version", mutate(valid, 4, 99), "not a v2 stream (version 99)"},
		{"implausible origin count", mutate(valid, 12, 0xff), "implausible origin table"},
		{"origin length over limit", mutate(valid, 16, 0xff), "implausibly long"},
		{"garbage", []byte(strings.Repeat("\xde\xad", 64)), "bad magic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := decodeAll(c.input)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestDecodeToleratesUnknownOpsAndFlags feeds records whose Op and Flags
// fields are outside every defined constant: they must round-trip intact
// through the v2 format (the analysis layer is responsible for skipping
// what it does not understand), and stringifying them must not panic.
func TestDecodeToleratesUnknownOpsAndFlags(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	o := sw.Origin("kernel/x")
	recs := []Record{
		{T: 1, TimerID: 1, Op: Op(200), Flags: Flags(0xffff), Origin: o},
		{T: 2, TimerID: 2, Op: nOps, Origin: o},
		{T: 3, TimerID: 3, Op: OpSet, Timeout: -int64(sim.Second), Origin: o},
	}
	for _, r := range recs {
		sw.Log(r)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got, names := replaySerial(t, buf.Bytes())
	if len(got) != len(recs) {
		t.Fatalf("len = %d", len(got))
	}
	for i, r := range got {
		if r != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, r, recs[i])
		}
		if names[i] != "kernel/x" {
			t.Fatalf("record %d origin = %q", i, names[i])
		}
		if r.Op.String() == "" {
			t.Fatalf("record %d: empty op name", i)
		}
	}
}

// FuzzDecodeV2 hammers the chunked-stream decoder with arbitrary bytes. A
// replay either fails cleanly or yields records that survive a re-encode /
// re-decode round trip with origin names intact.
func FuzzDecodeV2(f *testing.F) {
	seed := func(nrec, chunk int) []byte {
		var buf bytes.Buffer
		sw := NewStreamWriterSize(&buf, chunk)
		k := sw.Origin("kernel/x")
		u := sw.Origin("app/select")
		for i := 0; i < nrec; i++ {
			sw.Log(Record{T: sim.Time(i), TimerID: uint64(i % 2), Op: Op(i % 5),
				Origin: k + uint32(i%2)*(u-k), Timeout: int64(i) * int64(sim.Millisecond)})
		}
		if err := sw.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(0, 4))
	f.Add(seed(5, 2))
	full := seed(10, 4)
	f.Add(full[:len(full)-7])             // truncated mid-footer
	f.Add(append(full, 0))                // trailing garbage
	f.Add([]byte("TSTR\x02\x00\x00\x00")) // header only, no footer
	f.Add([]byte("TSTR"))

	type flat struct {
		r      Record
		origin string
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var recs []flat
		if err := sr.ForEach(func(r Record) {
			recs = append(recs, flat{r, sr.OriginName(r.Origin)})
		}); err != nil {
			return
		}
		// Valid stream: re-encode through a fresh writer (re-interning the
		// origin names) and replay; the logical records must round-trip.
		var buf bytes.Buffer
		sw := NewStreamWriterSize(&buf, 3)
		for _, fr := range recs {
			r := fr.r
			r.Origin = sw.Origin(fr.origin)
			sw.Log(r)
		}
		if err := sw.Close(); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		sr2, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-open: %v", err)
		}
		i := 0
		err = sr2.ForEach(func(r Record) {
			want := recs[i].r
			want.Origin = r.Origin // IDs may renumber; names are the identity
			if r != want {
				t.Fatalf("round-trip record %d: %+v != %+v", i, r, want)
			}
			if got := sr2.OriginName(r.Origin); got != recs[i].origin {
				t.Fatalf("round-trip origin %d: %q != %q", i, got, recs[i].origin)
			}
			i++
		})
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if i != len(recs) {
			t.Fatalf("round-trip count %d != %d", i, len(recs))
		}
	})
}
