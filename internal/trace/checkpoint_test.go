package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// buildCheckpoint makes a fixture big enough to span several 'H' chunks so
// the chunked framing is actually exercised.
func buildCheckpoint(tb testing.TB, hosts int) *Checkpoint {
	tb.Helper()
	cp := &Checkpoint{
		Label:    "fleet-1024/steered",
		Seed:     -42,
		Window:   317,
		VTime:    9_500_000_000,
		Config:   []byte(`{"webservers":8,"desktops":56}`),
		Commands: bytes.Repeat([]byte{0xAB, 0x01, 0x02}, 33),
	}
	for i := 0; i < hosts; i++ {
		h := CheckpointHost{
			Name:       fmt.Sprintf("ws-%04d", i),
			Clock:      9_500_000_000 + int64(i),
			Seq:        uint64(1000 + i),
			Pending:    uint32(i % 7),
			EventsHash: 0x9e3779b97f4a7c15 * uint64(i+1),
			RandDraws:  uint64(i * 13),
			Digest:     0xdeadbeef ^ uint64(i),
			Down:       i%11 == 3,
		}
		h.Counters.Total = uint64(i * 5)
		h.Counters.Dropped = uint64(i % 2)
		h.Counters.ByOp[i%int(nOps)] = uint64(i)
		cp.Hosts = append(cp.Hosts, h)
	}
	return cp
}

func encodeCheckpoint(tb testing.TB, cp *Checkpoint) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		tb.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundtrip(t *testing.T) {
	for _, hosts := range []int{0, 1, ckHostChunk, ckHostChunk + 1, 3*ckHostChunk + 7} {
		cp := buildCheckpoint(t, hosts)
		if hosts == 0 {
			cp.Commands = nil // also cover the commands-frame-absent path
		}
		got, err := ReadCheckpoint(bytes.NewReader(encodeCheckpoint(t, cp)))
		if err != nil {
			t.Fatalf("hosts=%d: ReadCheckpoint: %v", hosts, err)
		}
		// The writer omits the 'L' frame for empty command logs, so nil and
		// empty are the same on the wire; normalize before comparing.
		if len(cp.Commands) == 0 {
			cp.Commands, got.Commands = nil, nil
		}
		if len(cp.Hosts) == 0 {
			cp.Hosts, got.Hosts = nil, nil
		}
		if !reflect.DeepEqual(cp, got) {
			t.Fatalf("hosts=%d: roundtrip mismatch:\nwrote %+v\nread  %+v", hosts, cp, got)
		}
	}
}

// ckFrameBoundaries re-derives the checkpoint framing independently of the
// reader under test and returns every frame-start offset plus the end.
func ckFrameBoundaries(tb testing.TB, full []byte) []int {
	tb.Helper()
	le := binary.LittleEndian
	blob := func(pos int) int { return pos + 4 + int(le.Uint32(full[pos:])) }
	pos := 8 // magic + version
	bounds := []int{pos}
	for pos < len(full) {
		kind := full[pos]
		pos++
		switch kind {
		case ckFrameMeta:
			pos += 8 + 8 + 8 + 4 // seed, window, vtime, host count
			pos = blob(pos)      // label
			pos = blob(pos)      // config
		case ckFrameCommands:
			pos = blob(pos)
		case ckFrameHosts:
			count := int(le.Uint32(full[pos:]))
			pos += 4
			for i := 0; i < count; i++ {
				pos = blob(pos)                  // name
				pos += 8 + 8 + 4 + 8 + 8 + 8 + 1 // fixed fields
				pos += (int(nOps) + 3) * 8       // counters
			}
		case ckFrameEnd:
			pos += 8
		default:
			tb.Fatalf("unknown checkpoint frame %q at offset %d", kind, pos-1)
		}
		bounds = append(bounds, pos)
	}
	if pos != len(full) {
		tb.Fatalf("frame scan overran: pos %d, file %d bytes", pos, len(full))
	}
	return bounds
}

// TestCheckpointTruncation cuts the file at every frame boundary and
// mid-frame between each pair, and requires an error (never a panic) that
// names the exact byte offset — the same contract the v2 stream holds.
func TestCheckpointTruncation(t *testing.T) {
	full := encodeCheckpoint(t, buildCheckpoint(t, 2*ckHostChunk+5)) // 3 'H' chunks
	bounds := ckFrameBoundaries(t, full)
	if nframes := len(bounds) - 1; nframes < 5 {
		t.Fatalf("fixture too small: %d frames, want >= 5 ('M' + 'L' + 3 'H' + 'E')", nframes)
	}

	cuts := map[int]bool{0: true, 1: true, 4: true, 7: true} // inside the header too
	for i, b := range bounds {
		if b < len(full) {
			cuts[b] = true // cut exactly at a frame boundary
		}
		if i+1 < len(bounds) {
			cuts[(b+bounds[i+1])/2] = true // cut mid-frame
			cuts[b+1] = true               // cut right after the frame kind byte
		}
	}
	for cut := range cuts {
		cp, err := ReadCheckpoint(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut %d: truncated checkpoint decoded: %+v", cut, cp)
		}
		want := fmt.Sprintf("byte offset %d", cut)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("cut %d: error %q does not report %q", cut, err, want)
		}
	}

	// The untruncated file still decodes cleanly.
	if _, err := ReadCheckpoint(bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointBadMagicAndVersion(t *testing.T) {
	full := encodeCheckpoint(t, buildCheckpoint(t, 3))

	bad := bytes.Clone(full)
	copy(bad, "TSTR") // a v2 trace stream is not a checkpoint
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}

	bad = bytes.Clone(full)
	binary.LittleEndian.PutUint32(bad[4:], checkpointVersion+1)
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: err = %v", err)
	}
}

func TestCheckpointTrailingGarbage(t *testing.T) {
	full := encodeCheckpoint(t, buildCheckpoint(t, 3))
	for _, tail := range [][]byte{{0x00}, []byte("extra"), {ckFrameEnd}} {
		bad := append(bytes.Clone(full), tail...)
		if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "trailing garbage") {
			t.Fatalf("tail %v: err = %v", tail, err)
		}
	}
}

func TestCheckpointChecksumMismatch(t *testing.T) {
	full := encodeCheckpoint(t, buildCheckpoint(t, 3))
	bounds := ckFrameBoundaries(t, full)
	// Flip a bit inside the last host's digest field: pure payload, so the
	// framing still parses and only the checksum can catch it.
	off := bounds[len(bounds)-2] - (int(nOps)+3)*8 - 1 - 8 - 4 // back into digest
	bad := bytes.Clone(full)
	bad[off] ^= 0x80
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupted payload: err = %v", err)
	}
}

func TestCheckpointImplausibleLengths(t *testing.T) {
	full := encodeCheckpoint(t, buildCheckpoint(t, 3))
	le := binary.LittleEndian

	// Host count in the meta frame: offset 8 ('M') + 1 + 24.
	bad := bytes.Clone(full)
	le.PutUint32(bad[8+1+24:], 1<<30)
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "implausibl") {
		t.Fatalf("huge host count: err = %v", err)
	}

	// Label length right after the host count.
	bad = bytes.Clone(full)
	le.PutUint32(bad[8+1+24+4:], 1<<31)
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "implausibl") {
		t.Fatalf("huge label length: err = %v", err)
	}

	// A host chunk claiming more hosts than the meta frame declared.
	bounds := ckFrameBoundaries(t, full)
	var hostsOff int
	for _, b := range bounds[:len(bounds)-1] {
		if full[b] == ckFrameHosts {
			hostsOff = b
			break
		}
	}
	bad = bytes.Clone(full)
	le.PutUint32(bad[hostsOff+1:], 4) // file has 3 hosts
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "overruns declared count") {
		t.Fatalf("overrunning host chunk: err = %v", err)
	}
}

func TestCheckpointWriterRejectsOversizedBlobs(t *testing.T) {
	cp := buildCheckpoint(t, 1)
	cp.Commands = make([]byte, maxCheckpointBlob+1)
	if err := WriteCheckpoint(&bytes.Buffer{}, cp); err == nil {
		t.Fatal("oversized command log accepted")
	}
	cp = buildCheckpoint(t, 1)
	cp.Hosts[0].Name = string(make([]byte, maxCheckpointName+1))
	if err := WriteCheckpoint(&bytes.Buffer{}, cp); err == nil {
		t.Fatal("oversized host name accepted")
	}
}

// FuzzReadCheckpoint: arbitrary bytes must never panic the reader, and any
// input that decodes successfully must re-encode and re-decode to the same
// value (the decoder accepts only canonical files).
func FuzzReadCheckpoint(f *testing.F) {
	f.Add(encodeCheckpoint(f, buildCheckpoint(f, 0)))
	f.Add(encodeCheckpoint(f, buildCheckpoint(f, 3)))
	f.Add(encodeCheckpoint(f, buildCheckpoint(f, ckHostChunk+1)))
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := ReadCheckpoint(bytes.NewReader(encodeCheckpoint(t, cp)))
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !reflect.DeepEqual(cp, again) {
			t.Fatalf("re-encode changed value:\nfirst  %+v\nsecond %+v", cp, again)
		}
	})
}
