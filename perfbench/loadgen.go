package main

import (
	"sync"
	"time"
)

// clock is the load generator's view of time, so tests can drive it with
// a fake one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type realClock struct{}

func (realClock) now() time.Duration { return now() }

func (realClock) sleepUntil(t time.Duration) {
	if d := t - now(); d > 0 {
		time.Sleep(d)
	}
}

// sample is one request's timeline: when it was due, when a connection
// sent it, and when its response arrived.
type sample struct {
	due, sent, done time.Duration
}

// latency is measured from the due time, so a request that waited for a
// free connection is charged for the wait.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how long after its due time the request was sent.
func (s sample) late() time.Duration { return s.sent - s.due }

// openLoop sends request i at start+sched[i] whatever happened to earlier
// requests, over conns connections that each carry one request at a
// time. Requests go out in schedule order; when every connection is busy,
// the next request waits and is sent late. send performs request i on
// connection c and returns when its response has arrived.
func openLoop(clk clock, start time.Duration, sched []time.Duration, conns int, send func(c, i int)) []sample {
	out := make([]sample, len(sched))
	var mu sync.Mutex
	next := 0
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := take(); i < len(sched); i = take() {
				due := start + sched[i]
				clk.sleepUntil(due)
				sent := clk.now()
				send(c, i)
				out[i] = sample{due: due, sent: sent, done: clk.now()}
			}
		}(c)
	}
	wg.Wait()
	return out
}
