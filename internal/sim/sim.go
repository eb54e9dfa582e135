// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, a cancellable timer/event queue, and a seeded random
// number generator. Every experiment in this repository runs on top of it,
// which makes all figures exactly reproducible for a given seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. It is never related to the wall clock.
type Time = time.Duration

// Event is a scheduled callback. The queue holds exactly the events that
// will fire: cancelling one removes it.
type Event struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among events at the same instant
	fn    func()
	eng   *Engine
	index int // heap index, -1 when not queued
}

// Cancel removes the event from its engine's queue so it never fires. It
// is a no-op when the event is not queued — it already ran (or is running:
// an event is dequeued before its callback), was removed before, or e is
// nil — so it is safe to call any number of times.
func (e *Event) Cancel() {
	if e != nil && e.index >= 0 {
		heap.Remove(&e.eng.queue, e.index)
	}
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all model code runs inside event callbacks.
type Engine struct {
	now     Time
	queue   eventQueue
	nextSeq uint64
	rng     *rand.Rand
	stopped bool
	// Processed counts events executed since construction.
	Processed uint64
}

// NewEngine returns an engine with its virtual clock at zero and an RNG
// seeded with seed (deterministic per seed).
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (fn runs at the current instant, after already-queued events for
// this instant).
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	return e.At(e.now+max(delay, 0), fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past panics:
// it is always a model bug, and silently reordering would break causality.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := &Event{fn: fn, eng: e, index: -1}
	e.push(ev, t)
	return ev
}

// push queues ev to fire at t, after every event already queued for t.
func (e *Engine) push(ev *Event, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, e.now))
	}
	ev.at, ev.seq = t, e.nextSeq
	e.nextSeq++
	heap.Push(&e.queue, ev)
}

// Stop makes the current Run call return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events; every one of them will
// fire unless cancelled first.
func (e *Engine) Pending() int { return len(e.queue) }

// Run executes events in timestamp order until the queue is empty, the
// clock would pass until, or Stop is called. It returns the virtual time
// at which it stopped. Events scheduled exactly at until are executed.
func (e *Engine) Run(until Time) Time {
	e.run(until)
	if e.now < until && (len(e.queue) == 0 || !e.stopped) {
		e.now = until
	}
	return e.now
}

// RunUntilIdle executes events until none remain or Stop is called, with no
// time bound, and returns the final virtual time.
func (e *Engine) RunUntilIdle() Time {
	e.run(math.MaxInt64)
	return e.now
}

// run is the engine's one dispatch loop: fire queued events in (at, seq)
// order up to and including until.
func (e *Engine) run(until Time) {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped && e.queue[0].at <= until {
		next := heap.Pop(&e.queue).(*Event)
		e.now = next.at
		e.Processed++
		next.fn()
	}
}

// Timer is a restartable one-shot timer bound to an engine, in the style of
// time.Timer but in virtual time: one Event that Reset re-queues, so
// re-arming leaves nothing behind. The zero value is not usable; create
// with NewTimer.
type Timer struct{ ev Event }

// NewTimer returns a stopped timer that runs fn when it expires.
func NewTimer(eng *Engine, fn func()) *Timer {
	return &Timer{ev: Event{fn: fn, eng: eng, index: -1}}
}

// Reset (re)arms the timer to fire after d (a negative d is treated as
// zero). Any previous scheduling is cancelled.
func (t *Timer) Reset(d Time) {
	t.ev.Cancel()
	t.ev.eng.push(&t.ev, t.ev.eng.now+max(d, 0))
}

// Stop disarms the timer if armed.
func (t *Timer) Stop() { t.ev.Cancel() }

// Armed reports whether the timer is queued to fire.
func (t *Timer) Armed() bool { return t.ev.index >= 0 }
