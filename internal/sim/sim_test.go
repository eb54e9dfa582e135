package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.RunUntilIdle()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Millisecond {
		t.Errorf("Now() = %v, want 3ms", e.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.RunUntilIdle()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Millisecond, func() { fired = true })
	ev.Cancel()
	e.RunUntilIdle()
	if fired {
		t.Error("cancelled event fired")
	}
}

// TestCancelIsRemoval: Pending counts events that will fire, so Cancel
// lowers it by exactly one and every other way of calling Cancel — twice,
// after firing, from inside the event's own callback, on a nil event —
// leaves it alone.
func TestCancelIsRemoval(t *testing.T) {
	e := NewEngine(1)
	keep := e.Schedule(3*time.Millisecond, func() {})
	ev := e.Schedule(time.Millisecond, func() { t.Error("cancelled event fired") })
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	ev.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d after Cancel, want 1", e.Pending())
	}
	ev.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d after second Cancel, want 1", e.Pending())
	}
	var none *Event
	none.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d after nil Cancel, want 1", e.Pending())
	}

	var self *Event
	inside := -1
	self = e.Schedule(2*time.Millisecond, func() {
		self.Cancel()
		inside = e.Pending()
	})
	e.Run(2 * time.Millisecond)
	if inside != 1 {
		t.Errorf("Pending() = %d inside a self-cancelling callback, want 1 (only keep)", inside)
	}
	self.Cancel() // after firing
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d after Cancel of a fired event, want 1", e.Pending())
	}
	keep.Cancel()
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", e.Pending())
	}
	if e.Processed != 1 {
		t.Errorf("Processed = %d, want 1", e.Processed)
	}
}

// TestTimerResetLeavesOneEvent: a timer is one event however often it is
// re-armed (TCP re-arms its RTO on every ACK).
func TestTimerResetLeavesOneEvent(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	for i := 0; i < 100_000; i++ {
		tm.Reset(time.Duration(1+i%7) * time.Millisecond)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after 100000 Resets, want 1", e.Pending())
	}
	e.RunUntilIdle()
	if fires != 1 || tm.Armed() {
		t.Errorf("fires = %d, armed = %v; want 1, false", fires, tm.Armed())
	}
	// A timer may re-arm itself from its own callback.
	n := 0
	var again *Timer
	again = NewTimer(e, func() {
		if n++; n < 3 {
			again.Reset(time.Millisecond)
		}
	})
	again.Reset(time.Millisecond)
	e.RunUntilIdle()
	if n != 3 || e.Pending() != 0 {
		t.Errorf("self-re-arming timer fired %d times, Pending() = %d; want 3, 0", n, e.Pending())
	}
}

// TestFIFOAfterMiddleRemovals: removing from the middle of the heap
// re-sifts entries; events for one instant must still fire in the order
// they were scheduled.
func TestFIFOAfterMiddleRemovals(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var evs []*Event
	for i := 0; i < 200; i++ {
		i := i
		at := time.Millisecond
		if i%3 == 0 {
			at = time.Duration(i) * time.Microsecond // decoys spread around the instant
		}
		evs = append(evs, e.Schedule(at, func() { got = append(got, i) }))
	}
	for i, ev := range evs {
		if i%3 == 0 || i%5 == 0 {
			ev.Cancel()
		}
	}
	e.RunUntilIdle()
	last, n := -1, 0
	for _, i := range got {
		if i%3 == 0 || i%5 == 0 {
			t.Fatalf("cancelled event %d fired", i)
		}
		if i < last {
			t.Fatalf("same-instant order not FIFO after removals: %v", got)
		}
		last = i
		n++
	}
	if want := 200 - 67 - 40 + 14; n != want {
		t.Errorf("%d events fired, want %d", n, want)
	}
}

// queue is what the differential test drives: the engine, or the reference
// below.
type queue interface {
	now() Time
	schedule(d Time, fn func()) (cancel func())
	timer(fn func()) (reset func(Time), stop func())
	step() bool // fire the next event; false when nothing is left to fire
}

// refQueue is the engine's previous semantics, kept as the oracle: Cancel
// sets a flag, the entry stays queued, the run loop skips it when it
// surfaces, and re-arming a timer abandons the old event for a new one.
// (The old loop also moved the clock to a skipped event's time, visible only
// in RunUntilIdle's return value when the tail of the queue was cancelled;
// nothing read it and the reference does not reproduce it.)
type refQueue struct {
	clock Time
	seq   uint64
	q     []*refEvent
}

type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	cancel bool
}

func (r *refQueue) now() Time { return r.clock }

func (r *refQueue) schedule(d Time, fn func()) func() {
	ev := &refEvent{at: r.clock + max(d, 0), seq: r.seq, fn: fn}
	r.seq++
	r.q = append(r.q, ev)
	return func() { ev.cancel = true }
}

func (r *refQueue) timer(fn func()) (func(Time), func()) {
	cancel := func() {}
	return func(d Time) { cancel(); cancel = r.schedule(d, fn) }, func() { cancel() }
}

func (r *refQueue) step() bool {
	for len(r.q) > 0 {
		m := 0
		for i, ev := range r.q {
			if ev.at < r.q[m].at || ev.at == r.q[m].at && ev.seq < r.q[m].seq {
				m = i
			}
		}
		ev := r.q[m]
		r.q[m] = r.q[len(r.q)-1]
		r.q = r.q[:len(r.q)-1]
		if ev.cancel {
			continue
		}
		r.clock = ev.at
		ev.fn()
		return true
	}
	return false
}

// engQueue adapts the engine; every callback stops the run loop so step
// fires exactly one event.
type engQueue struct{ e *Engine }

func (q engQueue) now() Time { return q.e.Now() }

func (q engQueue) schedule(d Time, fn func()) func() {
	return q.e.Schedule(d, func() { fn(); q.e.Stop() }).Cancel
}

func (q engQueue) timer(fn func()) (func(Time), func()) {
	t := NewTimer(q.e, func() { fn(); q.e.Stop() })
	return t.Reset, t.Stop
}

func (q engQueue) step() bool {
	if q.e.Pending() == 0 {
		return false
	}
	q.e.RunUntilIdle()
	return true
}

type firing struct {
	id int // >= 0 one-shot events in creation order, < 0 timers
	at Time
}

// drive runs one seeded program of schedule / cancel / timer re-arm / timer
// stop / step operations, with callbacks that schedule children and cancel
// themselves, and returns what fired, in order.
func drive(q queue, seed int64, ops int) []firing {
	rng := rand.New(rand.NewSource(seed))
	delay := func(n int) Time { return Time(rng.Intn(n)-2) * time.Microsecond } // sometimes negative
	var log []firing
	var cancels []func()
	var spawn func(d Time)
	spawn = func(d Time) {
		id := len(cancels)
		nest, self := rng.Intn(4) == 0, rng.Intn(8) == 0
		cancels = append(cancels, nil)
		cancels[id] = q.schedule(d, func() {
			log = append(log, firing{id, q.now()})
			if self {
				cancels[id]()
			}
			if nest {
				spawn(delay(50))
			}
		})
	}
	const timers = 8
	var reset [timers]func(Time)
	var stop [timers]func()
	for i := range reset {
		i := i
		reset[i], stop[i] = q.timer(func() {
			log = append(log, firing{-1 - i, q.now()})
			if rng.Intn(3) == 0 {
				reset[i](delay(100)) // a timer re-arming itself, as the RTO does
			}
		})
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			spawn(delay(200))
		case r < 6 && len(cancels) > 0:
			cancels[rng.Intn(len(cancels))]() // may have fired or been cancelled already
		case r < 8:
			reset[rng.Intn(timers)](delay(200))
		case r < 9:
			stop[rng.Intn(timers)]()
		default:
			q.step()
		}
	}
	for q.step() {
	}
	return log
}

// TestDifferentialAgainstFlagAndSkip: removing an event on Cancel must be
// indistinguishable, by what fires and when, from flagging it and skipping
// it when popped.
func TestDifferentialAgainstFlagAndSkip(t *testing.T) {
	const ops = 12_000
	for seed := int64(1); seed <= 3; seed++ {
		e := NewEngine(seed)
		got := drive(engQueue{e}, seed, ops)
		want := drive(&refQueue{}, seed, ops)
		if len(want) < ops/10 {
			t.Fatalf("seed %d: only %d events fired; the program is too idle to prove anything", seed, len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d: engine %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine fired %d events, reference %d", seed, len(got), len(want))
		}
		if e.Pending() != 0 || e.Processed != uint64(len(got)) {
			t.Errorf("seed %d: Pending() = %d, Processed = %d after firing %d", seed, e.Pending(), e.Processed, len(got))
		}
	}
}

func TestRunUntilBound(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	now := e.Run(3 * time.Second)
	if count != 3 {
		t.Errorf("executed %d events by 3s, want 3", count)
	}
	if now != 3*time.Second {
		t.Errorf("Run returned %v, want 3s", now)
	}
	e.Run(10 * time.Second)
	if count != 5 {
		t.Errorf("executed %d events total, want 5", count)
	}
}

func TestRunAdvancesToUntilWhenIdle(t *testing.T) {
	e := NewEngine(1)
	if got := e.Run(5 * time.Second); got != 5*time.Second {
		t.Errorf("Run on empty queue = %v, want 5s", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Microsecond, rec)
		}
	}
	e.Schedule(0, rec)
	e.RunUntilIdle()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*time.Microsecond {
		t.Errorf("Now() = %v, want 99µs", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.RunUntilIdle()
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.RunUntilIdle()
	if count != 2 {
		t.Errorf("count = %d after Stop, want 2", count)
	}
	if e.Pending() != 3 {
		t.Errorf("Pending() = %d, want 3", e.Pending())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestTimer(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	tm.Reset(time.Millisecond)
	tm.Reset(2 * time.Millisecond) // re-arm replaces prior schedule
	if !tm.Armed() {
		t.Error("timer not armed after Reset")
	}
	e.RunUntilIdle()
	if fires != 1 {
		t.Errorf("fires = %d, want 1", fires)
	}
	if e.Now() != 2*time.Millisecond {
		t.Errorf("fired at %v, want 2ms", e.Now())
	}
	tm.Reset(time.Millisecond)
	tm.Stop()
	e.RunUntilIdle()
	if fires != 1 {
		t.Errorf("stopped timer fired; fires = %d", fires)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	e.RunUntilIdle()
	if !ran {
		t.Error("negative-delay event did not run")
	}
	if e.Now() != 0 {
		t.Errorf("Now() = %v, want 0", e.Now())
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Microsecond, func() {})
		if i%1024 == 0 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
}
