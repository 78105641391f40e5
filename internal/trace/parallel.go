package trace

import (
	"errors"
	"fmt"
	"sync"
)

// Parallel chunk pipeline. The v2 format frames records into independent
// chunks precisely so decode can fan out: one goroutine walks frames in file
// order (origin frames extend the string table serially; record frames are
// raw 40-byte-record payloads), a worker pool decodes chunk payloads, and
// chunks are delivered to the consumer strictly in frame order. Because a
// record chunk only references origins appended by earlier frames, the
// origin table visible when a chunk is read is complete for that chunk; the
// snapshot travels with it.

// maxChunkRecords bounds a single record chunk. Writers clamp their chunk
// size to it; readers reject larger counts as corrupt. It caps what a
// hostile 'R' frame header can make the decoder allocate (~40 MiB).
const maxChunkRecords = 1 << 20

// Chunk is one record chunk together with the origin table as of the frame
// that carried it.
type Chunk struct {
	// Records are the chunk's records, in stream order. The slice is only
	// valid during the ForEachChunk callback: storage is recycled afterwards.
	Records []Record
	// Origins is a read-only origin snapshot: Origins[id] is valid for every
	// Origin referenced by Records. Index 0 is "?".
	Origins []string
}

// OriginName resolves an origin ID against the chunk's snapshot; unknown IDs
// resolve to "?".
func (c Chunk) OriginName(id uint32) string {
	if int(id) < len(c.Origins) {
		return c.Origins[id]
	}
	return "?"
}

// ForEachChunk delivers the records stored when it is called in
// DefaultChunkRecords-sized chunks, one per block (a compacted block holds
// several). The records are already decoded, so workers is ignored; the
// chunk slices alias the buffer and must not be mutated.
func (b *Buffer) ForEachChunk(workers int, fn func(Chunk) error) error {
	sealed, tail := b.sealed, b.tail
	for _, blk := range sealed {
		if err := b.chunkBlock(blk, fn); err != nil {
			return err
		}
	}
	return b.chunkBlock(tail, fn)
}

// chunkBlock cuts one block into DefaultChunkRecords-sized chunks.
func (b *Buffer) chunkBlock(blk []Record, fn func(Chunk) error) error {
	for i := 0; i < len(blk); i += DefaultChunkRecords {
		end := min(i+DefaultChunkRecords, len(blk))
		if err := fn(Chunk{Records: blk[i:end], Origins: b.origins}); err != nil {
			return err
		}
	}
	return nil
}

// ForEachChunk decodes the stream's record chunks on up to workers
// goroutines and calls fn with each chunk, in frame order, on the calling
// goroutine. workers <= 1 decodes inline with no goroutines. Like ForEach it
// may be called once; memory is bounded by O(workers) chunks in flight plus
// the origin table.
func (s *StreamReader) ForEachChunk(workers int, fn func(Chunk) error) error {
	if s.consumed {
		return fmt.Errorf("trace: stream already consumed; reopen the file for a second pass")
	}
	s.consumed = true
	if workers <= 1 {
		var raw []byte
		var recs []Record
		return s.walkFrames(
			func(need int) []byte {
				if cap(raw) < need {
					raw = make([]byte, need)
				}
				return raw
			},
			func(p []byte, count int) error {
				var err error
				recs, err = decodeChunk(p, count, recs, len(s.origins))
				if err != nil {
					return err
				}
				return fn(Chunk{Records: recs, Origins: s.origins})
			})
	}
	return s.forEachChunkParallel(workers, fn)
}

// decodeChunk decodes count records from raw into dst (reused, returned
// re-sliced), validating every origin reference against a table of norigins
// entries.
func decodeChunk(raw []byte, count int, dst []Record, norigins int) ([]Record, error) {
	if cap(dst) < count {
		dst = make([]Record, count)
	}
	dst = dst[:count]
	for i := 0; i < count; i++ {
		r := getRecord(raw[i*RecordSize:])
		if int(r.Origin) >= norigins {
			return dst[:0], fmt.Errorf("trace: record origin %d out of range (table has %d)", r.Origin, norigins)
		}
		dst[i] = r
	}
	return dst, nil
}

// errStopped aborts the frame walk after the consumer has already failed;
// it never surfaces to the caller.
var errStopped = errors.New("trace: chunk pipeline stopped")

func (s *StreamReader) forEachChunkParallel(workers int, fn func(Chunk) error) error {
	type result struct {
		recs    []Record
		origins []string
		err     error
	}
	type job struct {
		raw     []byte
		count   int
		origins []string // snapshot; earlier entries are never mutated
		out     chan result
	}

	jobs := make(chan job, workers)
	// promises carries one single-buffered channel per chunk, in frame
	// order; delivery resolves them in order, which is the only ordering
	// mechanism the pipeline needs.
	promises := make(chan chan result, workers+1)
	stop := make(chan struct{})
	var rawPool, recPool sync.Pool

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				var dst []Record
				if v := recPool.Get(); v != nil {
					dst = v.([]Record)
				}
				recs, err := decodeChunk(j.raw, j.count, dst, len(j.origins))
				rawPool.Put(j.raw[:cap(j.raw)]) //nolint — same backing array, recycled
				j.out <- result{recs: recs, origins: j.origins, err: err}
			}
		}()
	}

	// Reader: walks frames sequentially (the origin table must grow in file
	// order), fanning record payloads out to the workers. Buffers come from
	// rawPool so in-flight memory stays O(workers) chunks.
	go func() {
		defer close(promises)
		defer close(jobs)
		err := s.walkFrames(
			func(need int) []byte {
				if v := rawPool.Get(); v != nil {
					if b := v.([]byte); cap(b) >= need {
						return b
					}
				}
				return make([]byte, need)
			},
			func(raw []byte, count int) error {
				out := make(chan result, 1)
				select {
				case promises <- out:
				case <-stop:
					return errStopped
				}
				select {
				case jobs <- job{raw: raw, count: count, origins: s.origins, out: out}:
				case <-stop:
					out <- result{err: errStopped}
					return errStopped
				}
				return nil
			})
		if err != nil && err != errStopped {
			// Frame-level error (truncation, bad frame, ...): deliver it in
			// order, after every chunk that preceded it.
			out := make(chan result, 1)
			out <- result{err: err}
			select {
			case promises <- out:
			case <-stop:
			}
		}
	}()

	var err error
	for out := range promises {
		res := <-out
		switch {
		case err != nil:
			// Already failed: drain remaining promises so the reader and
			// workers can exit.
		case res.err != nil:
			if res.err != errStopped {
				err = res.err
			}
			close(stop)
		default:
			err = fn(Chunk{Records: res.recs, Origins: res.origins})
			if err != nil {
				close(stop)
			}
		}
		if res.recs != nil {
			recPool.Put(res.recs[:cap(res.recs)])
		}
	}
	wg.Wait()
	return err
}
