package netsim

import (
	"testing"
	"time"
)

// schedule runs fn at simulation time at: a one-item ScheduleSeries.
func schedule(e *Engine, at time.Duration, fn func()) {
	e.ScheduleSeries([]time.Duration{at}, func(int) { fn() })
}

func TestEngineOrdering(t *testing.T) {
	var eng Engine
	var got []int
	schedule(&eng, 3*time.Second, func() { got = append(got, 3) })
	schedule(&eng, 1*time.Second, func() { got = append(got, 1) })
	schedule(&eng, 2*time.Second, func() { got = append(got, 2) })
	eng.Run(10 * time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	if eng.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", eng.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	var eng Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(&eng, time.Second, func() { got = append(got, i) })
	}
	eng.Run(2 * time.Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineRunUntilStopsAndResumes(t *testing.T) {
	var eng Engine
	fired := 0
	schedule(&eng, 5*time.Second, func() { fired++ })
	n := eng.Run(2 * time.Second)
	if n != 0 || fired != 0 {
		t.Fatalf("event beyond horizon ran: n=%d fired=%d", n, fired)
	}
	if eng.Pending() != 1 {
		t.Fatalf("Pending = %d", eng.Pending())
	}
	eng.Run(10 * time.Second)
	if fired != 1 {
		t.Fatalf("event did not resume: fired=%d", fired)
	}
}

func TestEngineCascade(t *testing.T) {
	var eng Engine
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			schedule(&eng, eng.Now()+time.Millisecond, tick)
		}
	}
	schedule(&eng, 0, tick)
	eng.Run(time.Second)
	if count != 100 {
		t.Fatalf("cascade count = %d", count)
	}
	if eng.Now() != time.Second {
		t.Fatalf("Now = %v", eng.Now())
	}
}

func TestEnginePastEventsRunNow(t *testing.T) {
	var eng Engine
	var at time.Duration
	schedule(&eng, time.Second, func() {
		schedule(&eng, 0, func() { at = eng.Now() }) // in the past
	})
	eng.Run(2 * time.Second)
	if at != time.Second {
		t.Fatalf("past event ran at %v, want 1s", at)
	}
}

// TestRunNeverMovesTimeBack calls Run with a horizon before the current
// time, with and without an event queued: nothing runs and the time stays.
func TestRunNeverMovesTimeBack(t *testing.T) {
	var eng Engine
	eng.Run(10 * time.Millisecond)
	if n := eng.Run(5 * time.Millisecond); n != 0 || eng.Now() != 10*time.Millisecond {
		t.Fatalf("Run(5ms) on an empty queue at 10ms: %d events, now %v", n, eng.Now())
	}
	ran := false
	schedule(&eng, 20*time.Millisecond, func() { ran = true })
	if n := eng.Run(5 * time.Millisecond); n != 0 || ran || eng.Now() != 10*time.Millisecond {
		t.Fatalf("Run(5ms) at 10ms with an event at 20ms: %d events, now %v", n, eng.Now())
	}
	if eng.Run(time.Second); !ran || eng.Now() != time.Second {
		t.Fatalf("event ran %v, now %v after Run(1s)", ran, eng.Now())
	}
}
