package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"timerstudy/internal/sim"
)

// magic opens every trace file, followed by a u32 format version. v2
// (stream.go) is the only format; readers reject every other version.
const magic = "TSTR"

// RecordSize is the exact encoded size of one Record in bytes (fields in
// struct order plus padding to an 8-byte multiple). DESIGN.md §"Trace
// format" and DefaultCapacity both derive from this constant; a codec test
// asserts a v2 'R' frame really carries records of this size.
const RecordSize = 40

// putRecord encodes one record into dst (the caller provides RecordSize
// bytes of scratch).
//
//lint:allocfree v2 record encoder: fixed-width stores into caller scratch
func putRecord(dst []byte, r Record) {
	le := binary.LittleEndian
	le.PutUint64(dst[0:], uint64(r.T))
	le.PutUint64(dst[8:], r.TimerID)
	le.PutUint64(dst[16:], uint64(r.Timeout))
	le.PutUint32(dst[24:], uint32(r.PID))
	le.PutUint32(dst[28:], r.Origin)
	dst[32] = byte(r.Op)
	le.PutUint16(dst[33:], uint16(r.Flags))
	// bytes 35..39 are padding, kept zero.
	dst[35], dst[36], dst[37], dst[38], dst[39] = 0, 0, 0, 0, 0
}

func getRecord(src []byte) Record {
	le := binary.LittleEndian
	return Record{
		T:       sim.Time(le.Uint64(src[0:])),
		TimerID: le.Uint64(src[8:]),
		Timeout: int64(le.Uint64(src[16:])),
		PID:     int32(le.Uint32(src[24:])),
		Origin:  le.Uint32(src[28:]),
		Op:      Op(src[32]),
		Flags:   Flags(le.Uint16(src[33:])),
	}
}

// maxReasonable bounds header-declared counts (records, origins) so a
// corrupt header cannot drive huge allocations.
const maxReasonable = 1 << 28

// readMagicVersion consumes and validates the 8-byte magic+version prefix
// and returns the version.
func readMagicVersion(br *bufio.Reader) (uint32, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[0:4]) != magic {
		return 0, fmt.Errorf("trace: bad magic %q", hdr[0:4])
	}
	return binary.LittleEndian.Uint32(hdr[4:]), nil
}
