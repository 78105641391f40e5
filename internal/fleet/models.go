package fleet

import (
	"timerstudy/internal/jiffies"
	"timerstudy/internal/kernel"
	"timerstudy/internal/sim"
)

// The built-in datacenter models: desktop hosts run closed-loop client
// threads against webserver hosts. Each request arms the paper's timer
// quartet — the client's 30 s request timeout and 200 ms TCP retransmit,
// the server's 15 s request watchdog, and (sometimes) the block layer's
// 4 ms unplug + 30 s IDE pair — so cumulative timer volume scales with
// hosts × request rate, exactly the "Table 3 × 1000" the fleet exists to
// measure. On top of that every host boots the full single-machine daemon
// set (workloads.HostKit), so the background timer population matches the
// paper's idle trace per box.

// webserverModel is a loaded web server: accept-loop select, per-request
// watchdog, service delay, occasional disk I/O.
type webserverModel struct {
	serviceMean sim.Duration
	reqPool     []*webRequest
	nreq        uint64
}

func newWebserverModel(serviceMean sim.Duration) *webserverModel {
	return &webserverModel{serviceMean: serviceMean}
}

func (w *webserverModel) Boot(h *Host) {
	h.Kit.BootKernelDaemons()
	h.Kit.BootUserDaemons()
	// Apache's housekeeping select with fd activity from real requests'
	// side effects modeled as a mean arrival.
	h.Kit.SelectLoop(h.Kern.NewProcess("apache"), serverSelectTimeout, 3*serverSelectTimeout)
}

//lint:allocfree per-request accept; only a pool miss builds a request
func (w *webserverModel) OnMessage(h *Host, m Message) {
	if m.Kind != MsgRequest {
		return
	}
	w.nreq++
	// Request watchdog: armed per accepted request, canceled when the
	// response goes out.
	var r *webRequest
	if n := len(w.reqPool); n > 0 {
		r = w.reqPool[n-1]
		w.reqPool = w.reqPool[:n-1]
	} else {
		r = w.newRequest(h)
	}
	r.expired = false
	r.src, r.id = int(m.Src), m.ID
	h.Kern.Base().ModTimeout(r.wd, serverRequestWatchdog)

	if w.nreq%serverDiskEvery == 0 {
		h.Kit.DiskIO()
	}
	h.Eng.After(h.Kit.Exp(w.serviceMean), "httpd:service", r.serviceFn)
}

// webRequest is one accepted request's state: its watchdog timer, whether
// that watchdog fired, and where the response goes. Request structs are
// slab-recycled with their timer, and both callbacks are bound once at
// construction, so serving a request allocates nothing.
type webRequest struct {
	w       *webserverModel
	h       *Host
	wd      *jiffies.Timer
	expired bool
	src     int
	id      uint64

	serviceFn func() // r.service bound once
}

// newRequest builds a request struct on a pool miss, a new high-water
// mark of in-flight requests.
func (w *webserverModel) newRequest(h *Host) *webRequest {
	r := &webRequest{w: w, h: h}
	r.wd = h.Kern.KernelTimer("kernel/tcp:request-watchdog", r.watchdogExpired)
	r.serviceFn = r.service
	return r
}

func (r *webRequest) watchdogExpired() { r.expired = true } // request aborted

// service finishes the request: cancel the watchdog and answer, unless the
// watchdog already aborted it. Either way the struct goes back to the pool.
//
//lint:allocfree per-request completion
func (r *webRequest) service() {
	if !r.expired {
		_ = r.h.Kern.Base().Del(r.wd)
		r.h.Send(r.src, MsgResponse, r.id, responseSize)
	}
	r.w.reqPool = append(r.w.reqPool, r)
}

// client is one desktop request loop: a thread that thinks, sends a
// request, and blocks in select on the 30 s timeout with a 200 ms
// retransmit timer running underneath.
type client struct {
	th      *kernel.Thread
	pending *kernel.Pending
	retrans *jiffies.Timer
	reqID   uint64
	dst     int
	tries   int
	waiting bool
	sentAt  sim.Time // first send of the current request (RTT sampling)

	// Per-client callbacks bound once at Boot, so the request loop
	// allocates no closures.
	requestFn func()
	selectFn  func(kernel.SelectResult)
}

// desktopModel drives clients against the webserver index range
// [0, webservers).
type desktopModel struct {
	webservers int
	threads    int
	thinkMean  sim.Duration
	clients    []*client
	inflight   map[uint64]*client
	nextID     uint64

	// Steering state (Steerable, see steer.go). All of it is plain host-
	// local data mutated only at session barriers or on the host's own
	// engine, so steered runs replay deterministically.
	spikeDiv   int64    // think-time divisor while spiking (>1 = spike on)
	spikeUntil sim.Time // spike expiry in virtual time
	adaptive   bool     // request-timeout policy (PolicyAdaptive)
	srtt       sim.Duration
	rttvar     sim.Duration
}

func newDesktopModel(webservers, threads int, thinkMean sim.Duration) *desktopModel {
	return &desktopModel{
		webservers: webservers,
		threads:    threads,
		thinkMean:  thinkMean,
		inflight:   map[uint64]*client{},
	}
}

func (d *desktopModel) Boot(h *Host) {
	h.Kit.BootKernelDaemons()
	h.Kit.BootUserDaemons()
	p := h.Kern.NewProcess("browser")
	for i := 0; i < d.threads; i++ {
		c := &client{th: p.NewThread()}
		c.retrans = h.Kern.KernelTimer("kernel/tcp:retransmit", func() {
			d.retransmit(h, c)
		})
		c.requestFn = func() { d.request(h, c) }
		c.selectFn = func(r kernel.SelectResult) { d.selectDone(h, c, r) }
		d.clients = append(d.clients, c)
		d.think(h, c, d.thinkMean)
	}
}

// think schedules the next request after an exponential pause. While a
// DirSpike is active the pause shrinks by the spike factor, multiplying
// the request rate.
//
//lint:allocfree per-request think pause; the callback is bound at Boot
func (d *desktopModel) think(h *Host, c *client, mean sim.Duration) {
	if d.spikeDiv > 1 && h.Eng.Now() < d.spikeUntil {
		if mean /= sim.Duration(d.spikeDiv); mean <= 0 {
			mean = 1
		}
	}
	h.Eng.After(h.Kit.Exp(mean), "browser:think", c.requestFn)
}

//lint:allocfree per-request send; the select callback is bound at Boot
func (d *desktopModel) request(h *Host, c *client) {
	if d.webservers == 0 {
		return
	}
	d.nextID++
	c.reqID = d.nextID
	c.dst = h.Eng.Rand().Intn(d.webservers)
	c.tries = 0
	c.waiting = true
	c.sentAt = h.Eng.Now()
	d.inflight[c.reqID] = c
	h.Send(c.dst, MsgRequest, c.reqID, requestSize)
	h.Kern.Base().ModTimeout(c.retrans, clientRetransmitTimeout)
	// The titular 30 seconds: armed on every request, nearly always
	// canceled by the response long before it could fire. Under
	// PolicyAdaptive the deadline tracks the RTT estimator instead.
	c.pending = c.th.Select(d.requestTimeout(), c.selectFn)
}

// selectDone continues the client loop when the request's select returns:
// early on a response, or at the deadline.
//
//lint:allocfree per-request select return
func (d *desktopModel) selectDone(h *Host, c *client, r kernel.SelectResult) {
	mean := d.thinkMean
	if r.TimedOut {
		// Deadline reached with no response: tear down and back off.
		delete(d.inflight, c.reqID)
		c.waiting = false
		_ = h.Kern.Base().Del(c.retrans)
		mean += clientGiveUpThink
	}
	d.think(h, c, mean)
}

// retransmit re-sends the outstanding request (packet or response lost, or
// server slow) and re-arms, up to the retry budget.
func (d *desktopModel) retransmit(h *Host, c *client) {
	if !c.waiting {
		return
	}
	if c.tries++; c.tries > clientMaxRetries {
		return // give up; the 30 s select deadline will fire
	}
	h.Send(c.dst, MsgRequest, c.reqID, requestSize)
	h.Kern.Base().ModTimeout(c.retrans, clientRetransmitTimeout)
}

//lint:allocfree per-response wakeup
func (d *desktopModel) OnMessage(h *Host, m Message) {
	if m.Kind != MsgResponse {
		return
	}
	c, ok := d.inflight[m.ID]
	if !ok {
		return // response to a request we already gave up on (or a dup)
	}
	delete(d.inflight, m.ID)
	c.waiting = false
	if c.tries == 0 {
		// Karn's rule: only never-retransmitted requests yield RTT
		// samples (a retransmitted response is ambiguous about which
		// send it answers).
		d.observeRTT(h.Eng.Now().Sub(c.sentAt))
	}
	_ = h.Kern.Base().Del(c.retrans)
	// Wakes the select early: OpCancel|FlagSatisfied on the 30 s timer,
	// then the select callback continues the loop.
	c.pending.Complete()
}

// requestTimeout picks the per-request select deadline under the active
// policy. PolicyFixed (and a cold estimator) arms the paper's full 30 s;
// PolicyAdaptive arms the RFC 6298 RTO, srtt + 4·rttvar, clamped to
// [adaptiveTimeoutMin, clientRequestTimeout].
func (d *desktopModel) requestTimeout() sim.Duration {
	if !d.adaptive || d.srtt == 0 {
		return clientRequestTimeout
	}
	rto := d.srtt + 4*d.rttvar
	if rto < adaptiveTimeoutMin {
		rto = adaptiveTimeoutMin
	}
	if rto > clientRequestTimeout {
		rto = clientRequestTimeout
	}
	return rto
}

// observeRTT feeds one round-trip sample into the Jacobson estimator
// (RFC 6298 integer form). Only runs while the adaptive policy is on, so
// the fixed-policy hot path stays untouched.
func (d *desktopModel) observeRTT(rtt sim.Duration) {
	if !d.adaptive || rtt <= 0 {
		return
	}
	if d.srtt == 0 {
		d.srtt = rtt
		d.rttvar = rtt / 2
		return
	}
	diff := d.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	d.rttvar += (diff - d.rttvar) / 4
	d.srtt += (rtt - d.srtt) / 8
}

// Steer implements Steerable: desktops accept load spikes and timeout-
// policy switches.
func (d *desktopModel) Steer(h *Host, dir Directive) bool {
	switch dir.Kind {
	case DirSpike:
		if dir.Arg < 1 || dir.Dur <= 0 {
			return false
		}
		d.spikeDiv = dir.Arg
		d.spikeUntil = h.Eng.Now() + sim.Time(dir.Dur)
		return true
	case DirPolicy:
		switch dir.Arg {
		case PolicyFixed:
			d.adaptive = false
		case PolicyAdaptive:
			// Cold-start the estimator: samples only accumulate while
			// adaptive, so a re-enable starts fresh.
			d.adaptive = true
			d.srtt, d.rttvar = 0, 0
		default:
			return false
		}
		return true
	}
	return false
}
