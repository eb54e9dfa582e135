// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, a cancellable timer/event queue, and a seeded random
// number generator. Every experiment in this repository runs on top of it,
// which makes all figures exactly reproducible for a given seed.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. It is never related to the wall clock.
type Time = time.Duration

// Event is a scheduled callback. The heaps hold exactly the events that
// will fire: cancelling one removes it. Its (at, seq) key lives in the
// heap slot, not here.
type Event struct {
	fn    func()
	lane  *Lane // set on a lane's own event, which stands for the lane's head
	eng   *Engine
	index int // slot index, -1 when not queued
}

// Cancel removes the event from its engine's cold heap so it never fires.
// It is a no-op when the event is not queued — it already ran (or is
// running: an event is dequeued before its callback), was removed before,
// or e is nil — so it is safe to call any number of times. Only handle
// events have a handle to cancel; a lane's own event is never cancelled.
func (e *Event) Cancel() {
	if e != nil && e.index >= 0 {
		e.eng.cold.remove(e.index)
	}
}

// slot is one queue entry: the firing key inline beside the event, so a
// comparison reads only the slot array.
type slot struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	ev  *Event
}

func (a slot) before(b slot) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is a 4-ary min-heap on (at, seq): the children of slot i are
// 4i+1 … 4i+4. seq is unique, so the order is total and the firing sequence
// does not depend on the heap's shape. Sifts move a hole and write the
// travelling slot once.
type eventQueue []slot

func (q eventQueue) set(i int, s slot) {
	q[i] = s
	s.ev.index = i
}

// up moves s toward the root from the hole at i.
func (q eventQueue) up(i int, s slot) {
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(q[parent]) {
			break
		}
		q.set(i, q[parent])
		i = parent
	}
	q.set(i, s)
}

// down moves s toward the leaves from the hole at i.
func (q eventQueue) down(i int, s slot) {
	for {
		first := 4*i + 1
		if first >= len(q) {
			break
		}
		least := first
		for c, end := first+1, min(first+4, len(q)); c < end; c++ {
			if q[c].before(q[least]) {
				least = c
			}
		}
		if !q[least].before(s) {
			break
		}
		q.set(i, q[least])
		i = least
	}
	q.set(i, s)
}

func (q *eventQueue) push(s slot) {
	*q = append(*q, s)
	q.up(len(*q)-1, s)
}

// remove takes the event at slot i out of the queue and refills the hole
// with the last slot.
func (q *eventQueue) remove(i int) *Event {
	old := *q
	ev := old[i].ev
	ev.index = -1
	n := len(old) - 1
	last := old[n]
	old[n] = slot{}
	*q = old[:n]
	if i == n {
		return ev
	}
	if i > 0 && last.before(old[(i-1)/4]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
	return ev
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all model code runs inside event callbacks.
type Engine struct {
	now Time
	// queue holds the lanes' heads, which fire and re-key at every packet
	// hop; cold holds the handle events (At, Schedule, Timer), mostly
	// far-off timers, so a lane's sift never walks past them. run fires
	// whichever root is first under (at, seq).
	queue eventQueue
	cold  eventQueue
	// behind counts the lane items queued behind their lane's head: they
	// will fire, but hold no heap slot.
	behind  int
	nextSeq uint64
	// passedSeq bounds the keys at now that the engine has passed: (at, seq)
	// is passed when at < now, or at == now and seq < passedSeq.
	passedSeq uint64
	// silentEnd is the greatest silent key drawn, its seq plus one (zero
	// before the first); the engine is idle only once it has passed it.
	silentEnd slot
	rng       *rand.Rand
	stopped   bool
	// Processed counts events executed since construction; silent keys
	// are not events and do not count.
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
// The caller may keep the returned handle, so each call allocates its
// Event; a per-packet event that nobody cancels belongs on a Lane.
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
	e.cold.push(slot{at: t, seq: e.nextSeq, ev: ev})
	e.nextSeq++
}

// SilentKey draws the (t, seq) key that At(t, ...) would be given and
// returns its seq, but queues nothing: nothing runs at t. Passed(t, seq)
// later tells whether the engine has gone past that point. It stands for
// an event whose only effect would be state read later, such as a link's
// end of transmission; Processed and Pending do not count it. A key in the
// past panics, as At does.
func (e *Engine) SilentKey(t Time) uint64 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, e.now))
	}
	seq := e.nextSeq
	e.nextSeq++
	if end := (slot{at: t, seq: seq + 1}); e.silentEnd.before(end) {
		e.silentEnd = end
	}
	return seq
}

// Passed reports whether an event keyed (at, seq) has fired, or, for a
// silent key, would have: true during the callback of any event keyed
// after it, and after any Run or RunUntilIdle that would have fired it.
// Before the first Run nothing has passed.
func (e *Engine) Passed(at Time, seq uint64) bool {
	return at < e.now || at == e.now && seq < e.passedSeq
}

// idle reports whether nothing is left to fire, silent keys included.
func (e *Engine) idle() bool {
	return e.next() == nil && !(slot{at: e.now, seq: e.passedSeq}).before(e.silentEnd)
}

// Stop makes the current Run call return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events, every lane item included;
// every one of them will fire unless cancelled first. Silent keys are not
// queued and do not count.
func (e *Engine) Pending() int { return len(e.queue) + len(e.cold) + e.behind }

// Run executes events in timestamp order until the queue is empty, the
// clock would pass until, or Stop is called. It returns the virtual time
// at which it stopped. Events scheduled exactly at until are executed.
// Unless a Stop leaves events behind, the clock then reads until and every
// key drawn so far at or before until has passed.
func (e *Engine) Run(until Time) Time {
	e.run(until)
	if e.now <= until && (!e.stopped || e.idle()) {
		e.now, e.passedSeq = until, e.nextSeq
	}
	return e.now
}

// RunUntilIdle executes events until none remain or Stop is called, with no
// time bound, and returns the final virtual time. Silent keys left after
// the last event are passed too: the clock ends at the greatest of them,
// where the events they stand for would have left it.
func (e *Engine) RunUntilIdle() Time {
	e.run(math.MaxInt64)
	if !e.stopped && !e.idle() {
		e.now, e.passedSeq = e.silentEnd.at, e.silentEnd.seq
	}
	return e.now
}

// run is the engine's one dispatch loop: fire queued events in (at, seq)
// order up to and including until.
func (e *Engine) run(until Time) {
	e.stopped = false
	for !e.stopped {
		q := e.next()
		if q == nil || (*q)[0].at > until {
			return
		}
		e.now, e.passedSeq = (*q)[0].at, (*q)[0].seq+1
		e.Processed++
		if l := (*q)[0].ev.lane; l != nil {
			l.fire()
		} else {
			q.remove(0).fn()
		}
	}
}

// next returns the heap whose root fires first, or nil when both are
// empty. (at, seq) is a total order, so two heaps pop the same sequence
// one would.
func (e *Engine) next() *eventQueue {
	switch {
	case len(e.cold) == 0:
		if len(e.queue) == 0 {
			return nil
		}
		return &e.queue
	case len(e.queue) == 0 || e.cold[0].before(e.queue[0]):
		return &e.cold
	}
	return &e.queue
}

// Lane is a FIFO of events whose firing times never decrease, such as one
// link's deliveries or one CPU's completions. Only the lane's head is in the
// engine's lane heap, keyed by the head item's own (at, seq), so a lane costs one
// heap slot however many items it holds, and lane items fire in exactly the
// (time, scheduling order) they would with a slot each. Items have no
// handle and cannot be cancelled. The items sit in a ring that grows to the
// most the lane ever held at once, so a steady stream of posts allocates
// nothing.
type Lane struct {
	ev   Event // queued exactly while the lane holds items
	call func(any)
	buf  []laneItem // len is zero or a power of two
	head int
	n    int
}

// laneItem is one posted event. Its seq is drawn when it is posted, exactly
// as At draws one.
type laneItem struct {
	at  Time
	seq uint64
	arg any
}

// NewLane returns an empty lane whose items run call(arg). Pass a call that
// lives as long as the lane and a pointer-shaped arg: boxing any other
// value allocates.
func (e *Engine) NewLane(call func(any)) *Lane {
	l := &Lane{call: call}
	l.ev = Event{lane: l, eng: e, index: -1}
	return l
}

// Post runs the lane's call(arg) at absolute virtual time t, after every
// event already queued for t. A post earlier than the lane's last item, or
// in the past, panics: like At in the past, it is always a model bug.
func (l *Lane) Post(t Time, arg any) {
	e := l.ev.eng
	if l.n > 0 {
		if last := l.buf[(l.head+l.n-1)&(len(l.buf)-1)].at; t < last {
			panic(fmt.Sprintf("sim: lane post at %v, before its last item at %v", t, last))
		}
	} else if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, e.now))
	}
	if l.n == len(l.buf) {
		grown := make([]laneItem, max(2*len(l.buf), 16))
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
		}
		l.buf, l.head = grown, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = laneItem{at: t, seq: e.nextSeq, arg: arg}
	if l.n == 0 {
		e.queue.push(slot{at: t, seq: e.nextSeq, ev: &l.ev})
	} else {
		e.behind++
	}
	l.n++
	e.nextSeq++
}

// Cap reports the length of the lane's ring: the most items it has held at
// once, rounded up to a power of two (at least 16).
func (l *Lane) Cap() int { return len(l.buf) }

// fire runs the lane's head, whose event is at the lane heap's root. The next
// item, if any, takes the root slot under its own key and sifts down once.
// The fired item is cleared before its callback runs (which may post
// again): a fired event must not keep its packet alive.
func (l *Lane) fire() {
	it := &l.buf[l.head]
	arg := it.arg
	*it = laneItem{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	e := l.ev.eng
	if l.n > 0 {
		next := l.buf[l.head]
		e.queue.down(0, slot{at: next.at, seq: next.seq, ev: &l.ev})
		e.behind--
	} else {
		e.queue.remove(0)
	}
	l.call(arg)
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
