package serve

import "time"

// Live-service tunables. These are host wall-clock values (the service
// talks to real producers and real browsers), but the paper's Section 4
// critique of unexplained magic numbers applies to our own configuration
// too, so every value carries its provenance and the magictimeout gate
// polices this package.
const (
	// defaultMergeCadence rate-limits query-triggered global merges: a
	// merge deep-clones every live stream shard, so at most one per second
	// keeps dashboard auto-refresh (1–2 s period) fresh while bounding
	// merge work to a fixed fraction of ingest throughput. A fully
	// quiesced server merges immediately regardless, so the cadence never
	// delays the deterministic final report.
	defaultMergeCadence = 1 * time.Second

	// defaultRateWindowSecs sizes the per-second rate ring: five minutes
	// covers the dashboard's longest chart window ("30 seconds is not
	// enough" — but 300 is for a live rate plot) at one bucket per second.
	defaultRateWindowSecs = 300

	// defaultMaxBodyBytes caps one ingest POST. An HTTPSink batch at the
	// default 1<<14 records is ~640 KiB plus origin frames; 8 MiB accepts
	// maximal custom batches (maxChunkRecords would still be refused by
	// the decoder) while bounding per-connection buffering.
	defaultMaxBodyBytes = 8 << 20

	// defaultMaxStreams bounds distinct producer streams; 1024 matches the
	// fleet demo's host count and keeps worst-case resident shard state
	// (streams × live timers) within a small multiple of the fleet run
	// itself.
	defaultMaxStreams = 1024

	// defaultIngestConcurrency bounds POST bodies being read/decoded at
	// once; beyond it producers queue on their connections (backpressure).
	// 16 saturates decode on any host this runs on while capping transient
	// body buffers at 16 × defaultMaxBodyBytes.
	defaultIngestConcurrency = 16

	// maxStagedCommands bounds the steering backlog between driver polls.
	// The driver drains every barrier (milliseconds apart); hundreds of
	// staged commands means no driver is polling, and rejecting fast beats
	// buffering requests that will never apply.
	maxStagedCommands = 256

	// maxCommandResults bounds the decided-command ring served by
	// /api/command/log; matches the control plane's own patch buffer.
	maxCommandResults = 1024

	// maxCommandBody caps one steering POST body. A command is a few
	// hundred bytes; the largest report — a full maxCommandResults batch of
	// decisions plus a maximal patch feed at ~100 bytes per entry — stays
	// under 256 KiB. The trace-batch limit does not apply to the control
	// API.
	maxCommandBody = 256 << 10
)

// HTTP server timeouts for a listener serving Server.Handler (timerstat
// -serve). Without them a client that opens a connection and never
// finishes its request holds that connection, and its goroutine, forever.
const (
	// ReadHeaderTimeout bounds the request header. Every client of this
	// service (trace.HTTPSink, the dashboard's fetches, curl in the
	// loopback gate) writes its whole header right after connecting, so
	// loopback and LAN headers arrive in milliseconds; five seconds is
	// three orders of magnitude of headroom and still cuts a slowloris
	// client off quickly.
	ReadHeaderTimeout = 5 * time.Second

	// ReadTimeout bounds the whole request, header and body. The largest
	// body accepted is defaultMaxBodyBytes (8 MiB), which a producer on a
	// slow 1 Mbit/s link sends in about 67 s; two minutes covers that
	// plus a wait behind defaultIngestConcurrency.
	ReadTimeout = 2 * time.Minute

	// IdleTimeout retires idle keep-alive connections. It is longer than
	// the 90 s IdleConnTimeout of net/http's default transport, which
	// trace.HTTPSink uses, so a producer drops an idle connection before
	// the server does and never sends a POST into a server-side close.
	IdleTimeout = 2 * time.Minute
)
