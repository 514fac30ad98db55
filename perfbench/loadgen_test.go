package main

import (
	"testing"
	"time"
)

// fakeClock advances only when told to: sleeping jumps to the wake-up
// time, and a request's service time is added by the send callback.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// A request that stalls its connection delays every request scheduled
// behind it, and the delay is charged to them: latency counts from the
// due time, not from when the request finally went out.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const u = time.Millisecond
	clk := &fakeClock{}
	sched := []time.Duration{0, 10 * u, 20 * u, 30 * u, 100 * u}
	service := []time.Duration{35 * u, 1 * u, 1 * u, 1 * u, 1 * u}
	got := openLoop(clk, 5*u, sched, 1, func(c, i int) { clk.t += service[i] })

	want := []sample{
		{due: 5 * u, sent: 5 * u, done: 40 * u},
		{due: 15 * u, sent: 40 * u, done: 41 * u},
		{due: 25 * u, sent: 41 * u, done: 42 * u},
		{due: 35 * u, sent: 42 * u, done: 43 * u},
		{due: 105 * u, sent: 105 * u, done: 106 * u}, // the backlog has drained
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if l := got[1].latency(); l != 26*u {
		t.Errorf("latency of the first delayed request = %v, want 26ms", l)
	}
	if l := got[1].late(); l != 25*u {
		t.Errorf("lateness of the first delayed request = %v, want 25ms", l)
	}
	if l := got[4].late(); l != 0 {
		t.Errorf("lateness after the backlog drained = %v, want 0", l)
	}
}

// Every scheduled request is sent exactly once, whatever the number of
// connections.
func TestOpenLoopSendsEachRequestOnce(t *testing.T) {
	sched := make([]time.Duration, 50)
	sent := make([]int, len(sched))
	openLoop(realClock{}, now(), sched, 2, func(c, i int) { sent[i]++ })
	for i, n := range sent {
		if n != 1 {
			t.Errorf("request %d sent %d times", i, n)
		}
	}
}
