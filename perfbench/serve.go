package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"timerstudy/internal/analysis"
	"timerstudy/internal/serve"
	"timerstudy/internal/sim"
	"timerstudy/internal/trace"
	"timerstudy/internal/workloads"
)

// serve-live is an open-loop live service: 16 producer streams of
// pre-simulated Linux traces, v2-encoded in set-up into frame-aligned
// batches and POSTed round-robin at a fixed rate over one connection while
// a second connection queries the API at a fixed rate. Decode, incremental
// folding and merge-on-query do the work; the simulator runs only in
// set-up.
const (
	serveStreams      = 16
	serveBatchRecords = 4096
	// serveBatchesPerStream sets a session's length: 16 streams × 12
	// batches at 100 batches/s is 1.92 s of load. The service merges on a
	// query at most once per second (its default cadence), so a session
	// merges at its first query and about a second later; the next merge
	// would fall due only after the load ends, at ~1 s plus the second
	// merge's length. Every session therefore does the same two live
	// merges and the final one. At 2.56 s of load a third live merge
	// happened or not depending on timing, and CPU per session swung by a
	// third.
	serveBatchesPerStream = 12
	servePostEvery        = 10 * time.Millisecond // 100 batches/s, ~410k records/s
	serveQueryEvery       = 20 * time.Millisecond // 50 queries/s
	serveSetupReps        = 5
)

var serveKinds = []string{workloads.Idle, workloads.Skype, workloads.Webserver, workloads.Firefox}

var serveQueries = []string{"/api/summary", "/api/origins", "/api/histograms", "/api/rates", "/api/streams"}

// servePipeline is the serve-bench analysis configuration, shared by the
// service and its offline oracle.
func servePipeline() analysis.Pipeline {
	return analysis.Pipeline{
		Values:        analysis.ValueOptions{JiffyBinKernel: true, MinSharePercent: 2},
		OriginMinSets: 10,
	}
}

// serveInput is the set-up's product: each stream's batches, plus the
// simulated records the oracle is built from.
type serveInput struct {
	names   []string
	batches [][][]byte // [stream][batch]
	records uint64
	traces  []*trace.Buffer // per stream, truncated to the records sent
	encode  time.Duration
}

// namespace makes timer identities disjoint across streams, as distinct
// hosts' would be.
func namespace(stream int) uint64 { return uint64(stream+1) << 48 }

// serveSetup simulates every stream's trace and encodes it into batches
// of one record frame each.
func serveSetup(seed int64) (*serveInput, error) {
	need := serveBatchesPerStream * serveBatchRecords
	in := &serveInput{}
	for i := 0; i < serveStreams; i++ {
		kind := serveKinds[i%len(serveKinds)]
		// Size the virtual length from a one-minute probe of the
		// workload's record rate, which differs a lot between workloads.
		cfg := workloads.Config{Seed: seed + int64(i), Duration: sim.Minute}
		res := workloads.RunLinux(kind, cfg)
		for res.Trace.Len() < need {
			perRecord := cfg.Duration / sim.Duration(max(res.Trace.Len(), 1))
			cfg.Duration = max(perRecord*sim.Duration(need)*5/4, cfg.Duration*3/2)
			res = workloads.RunLinux(kind, cfg)
		}
		in.names = append(in.names, fmt.Sprintf("live-%02d-%s", i, kind))
		in.traces = append(in.traces, res.Trace)

		t0 := time.Now()
		batches, err := encodeBatches(res.Trace, need, namespace(i))
		in.encode += time.Since(t0)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, batches)
		in.records += uint64(need)
	}
	return in, nil
}

// encodeBatches encodes the first n records of buf as a v2 stream cut
// after every record frame, so each batch is frame-aligned and carries
// serveBatchRecords records; the last one also carries the footer.
func encodeBatches(buf *trace.Buffer, n int, ns uint64) ([][]byte, error) {
	var out bytes.Buffer
	sw := trace.NewStreamWriterSize(&out, serveBatchRecords)
	var cuts []int
	for k, r := range buf.Records()[:n] {
		r.Origin = sw.Origin(buf.OriginName(r.Origin))
		r.TimerID |= ns
		sw.Log(r)
		if (k+1)%serveBatchRecords == 0 && k+1 < n {
			if err := sw.Flush(); err != nil {
				return nil, err
			}
			cuts = append(cuts, out.Len())
		}
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	data := out.Bytes()
	var batches [][]byte
	prev := 0
	for _, c := range append(cuts, len(data)) {
		batches = append(batches, data[prev:c])
		prev = c
	}
	return batches, nil
}

// serveOracle runs the offline pipeline over the streams concatenated in
// name order: what a quiesced server must answer, byte for byte.
func serveOracle(in *serveInput) (map[string][]byte, error) {
	need := serveBatchesPerStream * serveBatchRecords
	oracle := trace.NewBuffer(int(in.records))
	for i, b := range in.traces {
		for _, r := range b.Records()[:need] {
			r.Origin = oracle.Origin(b.OriginName(r.Origin))
			r.TimerID |= namespace(i)
			oracle.Log(r)
		}
	}
	rep, err := servePipeline().Run(oracle)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		"/api/summary":    rep.SummaryJSON(),
		"/api/histograms": rep.HistogramsJSON(),
		"/api/origins":    rep.OriginsJSON(),
	}, nil
}

// sessionResult is one session's measurements.
type sessionResult struct {
	ingest, query []opTiming
	ingestWall    time.Duration
	metrics       *serve.Metrics
	heapMB        float64
}

// serveSession starts a fresh server on a loopback port, drives one
// session of load through it, and checks the quiesced answers.
func serveSession(in *serveInput, expect map[string][]byte, o *outcome, tr *tracer, group int) (sessionResult, error) {
	var r sessionResult
	var m0 runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&m0) // measure collected the heap before the pass
	}
	srv := serve.New(serve.Options{Pipeline: servePipeline(), Version: "perfbench"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	producer := newClient()
	defer producer.CloseIdleConnections()
	reader := newClient()
	defer reader.CloseIdleConnections()

	sp := tr.begin("serve.session", 0, group)
	start := time.Now()
	stop := make(chan struct{})
	queried := make(chan []opTiming, 1)
	go func() {
		queried <- openLoop(start, serveQueryEvery, -1, stop, func(i int) error {
			return get(reader, base+serveQueries[i%len(serveQueries)], nil)
		})
	}()
	n := serveStreams * serveBatchesPerStream
	r.ingest = openLoop(start, servePostEvery, n, nil, func(i int) error {
		s, seq := i%serveStreams, i/serveStreams
		return post(producer, base+"/api/ingest", in.names[s], seq, in.batches[s][seq])
	})
	r.ingestWall = time.Since(start)

	// Quiesced: every stream has sent its footer, so the next query merges
	// everything and must equal the offline pipeline. The check goes over
	// the producer's connection while the query load keeps running.
	for _, path := range sortedKeys(expect) {
		var got []byte
		err := get(producer, base+path, &got)
		o.check(err == nil && bytes.Equal(got, expect[path]), "quiesced %s differs from the offline pipeline (err %v)", path, err)
	}
	close(stop)
	r.query = <-queried
	tr.end(sp)
	for i, op := range r.ingest {
		tr.record("serve.ingest", sp, group, start.Add(op.Sent), start.Add(op.Done))
		o.check(op.Err == nil, "POST %d: %v", i, op.Err)
	}
	for i, op := range r.query {
		tr.record("serve.query", sp, group, start.Add(op.Sent), start.Add(op.Done))
		o.check(op.Err == nil, "GET %s: %v", serveQueries[i%len(serveQueries)], op.Err)
	}
	if tr.on {
		var m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m1)
		r.heapMB = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / 1e6
	}
	r.metrics = &srv.Metrics
	runtime.KeepAlive(srv)
	return r, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func post(c *http.Client, url, stream string, seq int, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(trace.HeaderStream, stream)
	req.Header.Set(trace.HeaderSeq, strconv.Itoa(seq))
	req.Header.Set(trace.HeaderInstance, "perfbench")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body) // drained for connection reuse; the status decides
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// get fetches url, storing the body in out when non-nil.
func get(c *http.Client, url string, out *[]byte) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return errors.New(resp.Status)
	}
	if out != nil {
		*out = body
	}
	return nil
}

func runServeLive(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	var in *serveInput
	var setups, encodes []float64
	for i := 0; i < serveSetupReps; i++ {
		in = nil // let the previous set-up's traces go before the next
		runtime.GC()
		c0 := cpuTime()
		var err error
		if in, err = serveSetup(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		encodes = append(encodes, float64(in.encode)/float64(in.records))
	}
	expect, err := serveOracle(in)
	if err != nil {
		return nil, err
	}
	in.traces = nil // only the oracle needed the records

	off, tr := newTracer(false), newTracer(true)
	var cpus, rates, ingest, query, lag, tracedCPU, plainCPU []float64
	var merges, mergeMS, posts, heap, peaks []float64
	var rejected uint64
	err = measure(cfg.budget, passesFor(cfg), func(i int) error {
		traced := cfg.traced && i%2 == 0
		t := off
		if traced {
			t = tr
		}
		pt := startPass()
		r, err := serveSession(in, expect, o, t, i+1)
		if err != nil {
			return err
		}
		cost := pt.stop()
		cpu := cost.cpu
		peaks = append(peaks, cost.peakMB)
		cpus = append(cpus, cpu.Seconds())
		rates = append(rates, float64(in.records)/r.ingestWall.Seconds())
		for _, op := range r.ingest {
			ingest = append(ingest, ms(op.Latency()))
			lag = append(lag, ms(op.Lag))
		}
		for _, op := range r.query {
			query = append(query, ms(op.Latency()))
			lag = append(lag, ms(op.Lag))
		}
		m := r.metrics
		merges = append(merges, float64(m.Merges.Load()))
		if n := m.Merges.Load(); n > 0 {
			mergeMS = append(mergeMS, float64(m.MergeNSTotal.Load())/float64(n)/1e6)
		}
		posts = append(posts, float64(m.Posts.Load()))
		rejected += m.Rejected.Load()
		if traced {
			tracedCPU = append(tracedCPU, cpu.Seconds())
			heap = append(heap, r.heapMB)
		} else {
			plainCPU = append(plainCPU, cpu.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	o.set("setup_s", median(setups), "s")
	o.set("cpu_s", median(cpus), "s")
	o.set("peak_rss_mb", median(peaks), "MB")
	o.set("throughput_per_s", median(rates), "1/s")
	setLatency(o, ingest)
	o.spans = tr.closed()
	if !cfg.traced {
		return o, nil
	}
	decodeNS, foldNS, mergeOffMS := serveLayers(in)
	o.set("trace.encode_ns_per_record", median(encodes), "ns")
	o.set("trace.decode_ns_per_record", decodeNS, "ns")
	o.set("analysis.add_chunk_ns_per_record", foldNS, "ns")
	o.set("analysis.merge_ms", mergeOffMS, "ms")
	setTail := func(name string, xs []float64) {
		t, _ := tailPercentile(xs, 99)
		o.set(name+"_p50_ms", median(xs), "ms")
		o.set(name+"_p99_ms", t.Value, "ms")
		o.set(name+"_samples", float64(len(xs)), "count")
		if t.P < 99 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: only p%.2f has %d samples beyond it\n", name, t.P, minBeyond)
		}
	}
	setTail("serve.ingest", ingest)
	setTail("serve.query", query)
	o.set("serve.merges", median(merges), "count")
	o.set("serve.merge_ms.mean", median(mergeMS), "ms")
	o.set("serve.posts", median(posts), "count")
	o.set("serve.rejected", float64(rejected), "count")
	o.set("serve.heap_mb", median(heap), "MB")
	lt, _ := tailPercentile(lag, 99)
	o.set("loadgen.lag_ms.p99", lt.Value, "ms")
	o.set("trace.overhead_pct", overheadPct(tracedCPU, plainCPU), "%")
	return o, nil
}

// serveLayers times the service's layers outside HTTP on the same batches:
// FrameDecoder.Feed, Partial.AddChunk inside it, and MergePartials over
// the 16 Partials.
func serveLayers(in *serveInput) (decodeNS, foldNS, mergeMS float64) {
	pipe := servePipeline()
	parts := make([]*analysis.Partial, len(in.batches))
	var feed, fold time.Duration
	for s, batches := range in.batches {
		dec := trace.NewFrameDecoder()
		parts[s] = pipe.NewPartial()
		for _, b := range batches {
			t0 := time.Now()
			_ = dec.Feed(b, func(c trace.Chunk) error { // the sessions already checked these batches decode
				t1 := time.Now()
				parts[s].AddChunk(c)
				fold += time.Since(t1)
				return nil
			})
			feed += time.Since(t0)
		}
	}
	t0 := time.Now()
	pipe.MergePartials(parts)
	merge := time.Since(t0)
	n := float64(in.records)
	return float64(feed-fold) / n, float64(fold) / n, ms(merge)
}
