package analysis

import (
	"sync"

	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
)

// Incremental analysis. A Partial is a pipeline shard that is fed chunks as
// they arrive — from a live ingest connection, a file replayed piecewise,
// or any other incremental source — instead of in one Run. At any moment a
// set of Partials can be snapshotted and merged into a finished Report
// without disturbing their live state, so a trace service can answer
// queries mid-stream and keep folding records afterwards.
//
// Determinism contract: MergePartials over Partials fed one stream each is
// byte-identical to a single Run over the concatenation of those streams
// (in the same order), provided timer identities do not collide across
// streams. Everything the fold produces is either per-timer (and a timer
// lives entirely inside one Partial), commutative-additive, or canonically
// sorted at finish — the same argument as RunParallel's — except
// Summary.Concurrency, which MergePartials reconstructs exactly: when
// stream i's records play after streams 0..i-1 ended, every timer those
// streams left open stays open forever, so the running pending count
// during stream i is (sum of earlier streams' still-open timers) + stream
// i's own count, and the global maximum is
//
//	max_i( Σ_{j<i} openEnd_j + maxOpen_i )
//
// which needs only each Partial's final open count and high-water mark.
type Partial struct {
	mu sync.Mutex
	sh *shard
	// records counts the trace records fed, for observability; it is not
	// part of the report.
	records uint64
}

// NewPartial returns an empty Partial folding with this pipeline's
// configuration. Partials merged together must come from the same
// configuration.
func (p Pipeline) NewPartial() *Partial {
	return &Partial{sh: p.newShard()}
}

// AddChunk folds one chunk of records. Chunks from one stream must arrive
// in stream order; AddChunk is safe to call from any goroutine (calls
// serialize on an internal lock).
func (pa *Partial) AddChunk(c trace.Chunk) {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	for _, r := range c.Records {
		pa.sh.record(r, c.Origins)
	}
	pa.records += uint64(len(c.Records))
}

// AddSource folds a whole Source, chunk at a time. The error is the
// source's (decode or IO failure).
func (pa *Partial) AddSource(src trace.Source) error {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	return src.ForEachChunk(1, func(c trace.Chunk) error {
		for _, r := range c.Records {
			pa.sh.record(r, c.Origins)
		}
		pa.records += uint64(len(c.Records))
		return nil
	})
}

// Records returns how many trace records this Partial has folded.
func (pa *Partial) Records() uint64 {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	return pa.records
}

// snapshot clones the live shard under the lock. The clone is deep: the
// caller may fold and merge it while the Partial keeps accumulating.
func (pa *Partial) snapshot() *shard {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	return pa.sh.clone()
}

// MergePartials snapshots every Partial and merges the clones into a
// finished Report, leaving the live state untouched. Partials must all come
// from this pipeline configuration and are merged in slice order — the
// order that defines the equivalent concatenated stream.
func (p Pipeline) MergePartials(parts []*Partial) *Report {
	if len(parts) == 0 {
		sh := p.newShard()
		sh.fold()
		return p.report([]*shard{sh}, 0)
	}
	shards := make([]*shard, len(parts))
	concurrency, carried := 0, 0
	for i, pa := range parts {
		sh := pa.snapshot()
		sh.fold()
		if c := carried + sh.maxOpen; c > concurrency {
			concurrency = c
		}
		carried += sh.openCount
		shards[i] = sh
	}
	return p.report(shards, concurrency)
}

// clone deep-copies a shard mid-fold: arena blocks (including each timer's
// spilled timeout histogram), the identity map, every accumulator, and the
// additive tallies. Fold-time state (pending uses, open flags) copies too,
// so the clone can be folded — which mutates it — while the original keeps
// streaming.
func (s *shard) clone() *shard {
	c := &shard{
		cfg:           s.cfg,
		seriesProcess: s.seriesProcess,
		sum:           s.sum,
		end:           s.end,
		shares:        s.shares,
		nTimers:       s.nTimers,
		openCount:     s.openCount,
		maxOpen:       s.maxOpen,
	}
	c.values = s.values.clone()
	c.vaccs = append(c.vaccs, c.values)
	if s.valuesF != nil {
		c.valuesF = s.valuesF.clone()
		c.vaccs = append(c.vaccs, c.valuesF)
	}
	if s.valuesU != nil {
		c.valuesU = s.valuesU.clone()
		c.vaccs = append(c.vaccs, c.valuesU)
	}
	if s.scatter != nil {
		c.scatter = s.scatter.clone()
	}
	if s.origins != nil {
		c.origins = s.origins.clone()
	}
	c.pts = append([]SeriesPoint(nil), s.pts...)
	c.clusters = make(map[cluster]bool, len(s.clusters))
	for k := range s.clusters {
		c.clusters[k] = true
	}
	c.byID = make(map[uint64]int32, len(s.byID))
	for id, idx := range s.byID {
		c.byID[id] = idx
	}
	c.blocks = make([][]streamTimer, len(s.blocks))
	for i, blk := range s.blocks {
		nb := make([]streamTimer, len(blk))
		copy(nb, blk)
		for j := range nb {
			if m := nb[j].tvMore; m != nil {
				nm := make(map[sim.Duration]int, len(m))
				for v, n := range m {
					nm[v] = n
				}
				nb[j].tvMore = nm
			}
		}
		c.blocks[i] = nb
	}
	return c
}
