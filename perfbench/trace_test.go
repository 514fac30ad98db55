package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	const u = time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * u},
		{Name: "a", Parent: 0, Start: 10 * u, End: 30 * u},
		{Name: "b", Parent: 0, Start: 20 * u, End: 50 * u},  // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90 * u, End: 120 * u}, // clipped at 100
		{Name: "d", Parent: 2, Start: 25 * u, End: 35 * u},  // grandchild
		{Name: "e", Parent: -1, Start: 200 * u, End: 210 * u},
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100*u - (40*u + 10*u), // a∪b covers 10..50, c covers 90..100
		20 * u,
		30*u - 10*u,
		30 * u,
		10 * u,
		10 * u,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}

	lt := layerTimes(spans)
	if r := lt["root"]; r.count != 1 || r.totalMS != 100 || r.selfMS != 50 {
		t.Errorf("root layer = %+v", r)
	}
	if z := lt["absent"]; z.count != 0 || z.totalMS != 0 {
		t.Errorf("absent layer = %+v", z)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", -1, 0)
	tr.end(i)
	if i != -1 || tr.snapshot() != nil || tr.add(span{}) != -1 {
		t.Error("nil tracer recorded a span")
	}
}
