package trace

// Sink is the producer side of the trace seam: everything a timer facility
// needs in order to emit records. A Sink either stores records (Buffer),
// spills them to disk while the simulation runs (StreamWriter), or discards
// them (a zero-capacity Buffer). Facilities hold a Sink, never a concrete
// buffer — the rawsink lint analyzer enforces this outside this package.
type Sink interface {
	// Log records one operation. Implementations count every record even
	// when they cannot store it.
	Log(Record)
	// Origin interns an origin label and returns its stable ID. IDs are
	// assigned in first-intern order, identically across implementations,
	// so the same simulation produces the same record bytes through any
	// Sink.
	Origin(name string) uint32
}

// Source is the consumer side: a recorded stream that can be walked once
// (or more, for in-memory implementations) in record order, resolving
// origin IDs as it goes. The analysis pipeline consumes a Source in a
// single pass, so a file-backed Source never needs to fit in memory.
type Source interface {
	// ForEach calls fn for every record in time order. File-backed sources
	// return decoding/IO errors; in-memory sources return nil. A Source
	// may be single-use (StreamReader): callers that need a second pass
	// reopen the underlying file.
	ForEach(fn func(Record)) error
	// ForEachChunk delivers the records a chunk at a time, decoding chunk
	// payloads on up to workers goroutines. fn runs on the calling
	// goroutine and sees chunks strictly in stream order regardless of
	// worker count, so any fold over chunks is as deterministic as a
	// serial walk. Chunk contents are only valid during the callback. It
	// shares ForEach's single-use rule.
	ForEachChunk(workers int, fn func(Chunk) error) error
	// OriginName resolves an origin ID; unknown IDs resolve to "?". During
	// ForEach the mapping is complete for every record delivered so far.
	OriginName(id uint32) string
}

// Buffer is both a Sink and a Source; StreamWriter is a Sink; StreamReader
// is a Source.
var (
	_ Sink   = (*Buffer)(nil)
	_ Source = (*Buffer)(nil)
	_ Sink   = (*StreamWriter)(nil)
	_ Source = (*StreamReader)(nil)
)

// ForEach walks the records stored when it is called, in order. It never
// fails; the error is the Source contract's.
func (b *Buffer) ForEach(fn func(Record)) error {
	sealed, tail := b.sealed, b.tail
	for _, blk := range sealed {
		for _, r := range blk {
			fn(r)
		}
	}
	for _, r := range tail {
		fn(r)
	}
	return nil
}
