package main

import "time"

// opTiming is one open-loop operation, every instant relative to the
// schedule's start.
type opTiming struct {
	Due, Sent, Done time.Duration
	// Lag is how late the generator itself sent the operation: the time
	// between the moment it could have sent (its due time, or the previous
	// operation's completion if that came later) and the moment it did.
	Lag time.Duration
	Err error
}

// Latency counts from the due time, so the wait an overrunning operation
// imposes on the ones queued behind it is part of their latency.
func (o opTiming) Latency() time.Duration { return o.Done - o.Due }

// openLoop runs op(i) for i = 0, 1, ... on one goroutine (one connection),
// each due at start + i·interval whatever happened to the previous one: a
// stalled operation delays the ones behind it instead of lowering the
// offered load. It stops after n operations, or once stop is closed if n is
// negative.
func openLoop(start time.Time, interval time.Duration, n int, stop <-chan struct{}, op func(i int) error) []opTiming {
	var out []opTiming
	var prevDone time.Duration
	for i := 0; n < 0 || i < n; i++ {
		due := time.Duration(i) * interval
		if wait := time.Until(start.Add(due)); wait > 0 {
			if stop == nil {
				time.Sleep(wait)
			} else {
				t := time.NewTimer(wait)
				select {
				case <-stop:
					_ = t.Stop() // the run is over; whether the timer had fired does not matter
					return out
				case <-t.C:
				}
			}
		} else if stop != nil {
			select {
			case <-stop:
				return out
			default:
			}
		}
		sent := time.Since(start)
		err := op(i)
		done := time.Since(start)
		ready := max(due, prevDone)
		out = append(out, opTiming{Due: due, Sent: sent, Done: done, Lag: max(sent-ready, 0), Err: err})
		prevDone = done
	}
	return out
}
