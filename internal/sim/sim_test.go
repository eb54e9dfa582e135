package sim

import (
	"math"
	"math/rand"
	"sort"
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
	post(lane int, t Time, fn func()) // at t, never before the lane's last post; no handle
	timer(fn func()) (reset func(Time), stop func())
	silent(t Time) (passed func() bool) // a key at t that queues nothing
	step() bool                         // RunUntilIdle stopped after the first event; false when none fired
	runTo(until Time, stepping bool)    // Run(until), stopped after the first event when stepping
	pending() int                       // events that will fire
	processed() uint64                  // events fired
}

// lanes is how many lanes the programs post to.
const lanes = 4

// refQueue is the engine's original semantics, kept as the oracle: an
// unordered list searched for the least (at, seq), Cancel sets a flag, the
// entry stays queued and is skipped when it surfaces, re-arming a timer
// abandons the old event for a new one, and nothing is ever reused. A
// silent key is an entry too, which sets its passed flag and moves the
// clock when it surfaces, but does not fire or count.
// (The old loop also moved the clock to a skipped event's time, visible only
// in RunUntilIdle's return value when the tail of the queue was cancelled;
// nothing read it and the reference does not reproduce it.)
type refQueue struct {
	clock Time
	seq   uint64
	fired uint64
	q     []*refEvent
}

type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	cancel bool
	silent bool
	passed bool
}

func (r *refQueue) now() Time { return r.clock }

func (r *refQueue) push(t Time, fn func()) *refEvent {
	ev := &refEvent{at: t, seq: r.seq, fn: fn}
	r.seq++
	r.q = append(r.q, ev)
	return ev
}

func (r *refQueue) schedule(d Time, fn func()) func() {
	ev := r.push(r.clock+max(d, 0), fn)
	return func() { ev.cancel = true }
}

// post is a plain event to the reference: lanes are the engine's business.
func (r *refQueue) post(_ int, t Time, fn func()) { r.schedule(t-r.clock, fn) }

func (r *refQueue) timer(fn func()) (func(Time), func()) {
	cancel := func() {}
	return func(d Time) { cancel(); cancel = r.schedule(d, fn) }, func() { cancel() }
}

func (r *refQueue) silent(t Time) func() bool {
	ev := r.push(t, nil)
	ev.silent = true
	return func() bool { return ev.passed }
}

// run takes entries in (at, seq) order up to until, firing events and
// passing silent keys, and with stepping stops after the first event that
// fires. It reports whether one fired.
func (r *refQueue) run(until Time, stepping bool) (fired bool) {
	for len(r.q) > 0 && !(stepping && fired) {
		m := 0
		for i, ev := range r.q {
			if ev.at < r.q[m].at || ev.at == r.q[m].at && ev.seq < r.q[m].seq {
				m = i
			}
		}
		ev := r.q[m]
		if ev.at > until {
			break
		}
		r.q[m] = r.q[len(r.q)-1]
		r.q = r.q[:len(r.q)-1]
		if ev.cancel {
			continue
		}
		r.clock = ev.at
		if ev.silent {
			ev.passed = true
			continue
		}
		r.fired++
		fired = true
		ev.fn()
	}
	return fired
}

func (r *refQueue) step() bool { return r.run(math.MaxInt64, true) }

// runTo moves the clock to until afterwards unless a stop left entries
// (silent keys included) behind.
func (r *refQueue) runTo(until Time, stepping bool) {
	stopped := r.run(until, stepping) && stepping
	live := 0
	for _, ev := range r.q {
		if !ev.cancel {
			live++
		}
	}
	if r.clock < until && (!stopped || live == 0) {
		r.clock = until
	}
}

func (r *refQueue) pending() int {
	n := 0
	for _, ev := range r.q {
		if !ev.cancel && !ev.silent {
			n++
		}
	}
	return n
}

func (r *refQueue) processed() uint64 { return r.fired }

// engQueue adapts the engine; while stepping, every callback stops the run
// loop so a run fires exactly one event.
type engQueue struct {
	e        *Engine
	lanes    [lanes]*Lane
	stepping bool
}

func newEngQueue(e *Engine) *engQueue {
	q := &engQueue{e: e, stepping: true}
	for i := range q.lanes {
		q.lanes[i] = e.NewLane(q.fire)
	}
	return q
}

func (q *engQueue) now() Time { return q.e.Now() }

func (q *engQueue) stop() {
	if q.stepping {
		q.e.Stop()
	}
}

func (q *engQueue) schedule(d Time, fn func()) func() {
	return q.e.Schedule(d, func() { fn(); q.stop() }).Cancel
}

func (q *engQueue) post(lane int, t Time, fn func()) { q.lanes[lane].Post(t, fn) }

func (q *engQueue) fire(fn any) { fn.(func())(); q.stop() }

func (q *engQueue) timer(fn func()) (func(Time), func()) {
	t := NewTimer(q.e, func() { fn(); q.stop() })
	return t.Reset, t.Stop
}

func (q *engQueue) silent(t Time) func() bool {
	seq := q.e.SilentKey(t)
	return func() bool { return q.e.Passed(t, seq) }
}

func (q *engQueue) step() bool {
	n := q.e.Processed
	q.e.RunUntilIdle()
	return q.e.Processed != n
}

func (q *engQueue) runTo(until Time, stepping bool) {
	q.stepping = stepping
	q.e.Run(until)
	q.stepping = true
}

func (q *engQueue) pending() int { return q.e.Pending() }

func (q *engQueue) processed() uint64 { return q.e.Processed }

// observed is one line of a program's log: an event firing, or (id ==
// afterOp) the state an operation left behind.
type observed struct {
	id        int // >= 0 one-shot events in creation order, timers -1 … -8
	at        Time
	pending   int
	processed uint64
	passed    uint64 // digest of which silent keys have passed, in draw order
}

const afterOp = -100

// choices is where a program's decisions come from: a seeded generator in
// the differential test, the fuzzer's bytes in FuzzQueueOrder.
type choices func(n int) int

// fromBytes spends one byte per decision; once they run out every decision
// is the last alternative, which in drive schedules nothing further.
func fromBytes(b []byte) choices {
	return func(n int) int {
		if len(b) == 0 {
			return n - 1
		}
		v := int(b[0]) % n
		b = b[1:]
		return v
	}
}

// drive runs one program of ops operations — schedule with a handle, post to
// one of the lanes, cancel (any event, the newest, the earliest: the last and
// the root slot when nothing else is in the way), timer re-arm, timer stop,
// draw a silent key, step, run to a bound with or without stopping after
// the first event — with callbacks that schedule and post children, draw
// silent keys, cancel themselves and cancel others, then drains the queue.
// A lane post lands at now+d or at the lane's last time, whichever is
// later, so lanes build runs of items at one instant beside handle events,
// timers and silent keys at that instant. It returns every firing and the
// state after every operation, in order; each line says which silent keys
// have passed, so before the first run, inside callbacks, after a stop in
// the middle of an instant and after a run to a bound are all compared.
func drive(q queue, intn choices, ops int) []observed {
	delay := func(n int) Time { return Time(intn(n)-2) * time.Microsecond } // sometimes negative
	var log []observed
	var silents []func() bool
	observe := func(id int) {
		h := uint64(14695981039346656037)
		for _, passed := range silents {
			b := uint64(1)
			if passed() {
				b = 2
			}
			h = (h ^ b) * 1099511628211
		}
		log = append(log, observed{id, q.now(), q.pending(), q.processed(), h})
	}
	silent := func(d Time) { silents = append(silents, q.silent(q.now()+max(d, 0))) }
	type shot struct {
		cancel func() // nil for a lane item
		at     Time
		done   bool // fired, or cancelled by this program
	}
	var shots []*shot
	var laneLast [lanes]Time
	cancel := func(s *shot) {
		if s.cancel != nil {
			s.cancel()
			s.done = true
		}
	}
	var spawn func(d Time, handle bool)
	spawn = func(d Time, handle bool) {
		id := len(shots)
		nest, self, other := intn(4) == 0, intn(8) == 0, intn(8) == 0
		s := &shot{at: q.now() + max(d, 0)}
		shots = append(shots, s)
		fn := func() {
			s.done = true
			observe(id)
			if self {
				cancel(s)
			}
			if other {
				cancel(shots[intn(len(shots))])
			}
			if nest {
				spawn(delay(50), intn(2) == 0)
			}
			if intn(4) == 0 {
				silent(delay(50))
			}
		}
		if handle {
			s.cancel = q.schedule(d, fn)
			return
		}
		l := intn(lanes)
		s.at = max(s.at, laneLast[l])
		laneLast[l] = s.at
		q.post(l, s.at, fn)
	}
	const timers = 8
	var reset [timers]func(Time)
	var stop [timers]func()
	for i := range reset {
		i := i
		reset[i], stop[i] = q.timer(func() {
			observe(-1 - i)
			if intn(3) == 0 {
				reset[i](delay(100)) // a timer re-arming itself, as the RTO does
			}
		})
	}
	for op := 0; op < ops; op++ {
		switch r := intn(17); {
		case r < 3:
			spawn(delay(200), true)
		case r < 6:
			spawn(delay(200), false)
		case r < 8 && len(shots) > 0:
			cancel(shots[intn(len(shots))]) // may have fired or been cancelled already
		case r == 8 && len(shots) > 0:
			cancel(shots[len(shots)-1])
		case r == 9:
			var first *shot
			for _, s := range shots {
				if s.cancel != nil && !s.done && (first == nil || s.at < first.at) {
					first = s
				}
			}
			if first != nil {
				cancel(first)
			}
		case r < 12:
			reset[intn(timers)](delay(200))
		case r == 12:
			stop[intn(timers)]()
		case r == 13:
			q.step()
		case r < 16:
			silent(delay(200))
		default:
			q.runTo(q.now()+delay(300), intn(2) == 0)
		}
		observe(afterOp)
	}
	for q.step() {
	}
	observe(afterOp)
	return log
}

// sameAsReference runs one program on the engine and on the reference and
// requires the same firings at the same instants with the same Pending(),
// Processed and passed silent keys after every firing and every operation.
func sameAsReference(t *testing.T, intn func() choices, ops int) (fired int) {
	t.Helper()
	q := newEngQueue(NewEngine(1))
	got := drive(q, intn(), ops)
	want := drive(&refQueue{}, intn(), ops)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("log line %d: engine %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine logged %d lines, reference %d", len(got), len(want))
	}
	if q.e.Pending() != 0 {
		t.Errorf("Pending() = %d after draining", q.e.Pending())
	}
	for i, l := range q.lanes {
		if l.n != 0 || l.ev.index != -1 {
			t.Fatalf("drained lane %d holds %d items, event at slot %d", i, l.n, l.ev.index)
		}
		for _, it := range l.buf {
			if it.arg != nil {
				t.Fatalf("lane %d: a fired item still holds its argument", i)
			}
		}
	}
	return int(q.e.Processed)
}

// TestDifferentialAgainstFlagAndSkip: the typed heap with removal on Cancel,
// lanes of which only the head is queued, and silent keys that queue
// nothing must be indistinguishable, by what fires and when, by Pending()
// and Processed, and by which silent keys have passed, at every step, from
// an unordered list that flags cancelled events and skips them when they
// surface and flags silent keys passed when they surface.
func TestDifferentialAgainstFlagAndSkip(t *testing.T) {
	const ops = 12_000
	for seed := int64(1); seed <= 3; seed++ {
		fired := sameAsReference(t, func() choices { return rand.New(rand.NewSource(seed)).Intn }, ops)
		if fired < ops/10 {
			t.Fatalf("seed %d: only %d events fired; the program is too idle to prove anything", seed, fired)
		}
	}
}

// FuzzQueueOrder is the same differential check with the fuzzer choosing the
// program, one byte per decision.
func FuzzQueueOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 4096 {
			t.Skip("long programs add time, not shapes")
		}
		sameAsReference(t, func() choices { return fromBytes(program) }, len(program))
	})
}

// TestLanePostIsAllocationFree: a lane reuses its ring once it has grown,
// so posting and firing bursts on a deep queue allocates nothing.
func TestLanePostIsAllocationFree(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 4096; i++ {
		e.Schedule(time.Hour+Time(i), func() {})
	}
	fired := 0
	l := e.NewLane(func(any) { fired++ })
	burst := func() {
		for i := 0; i < 64; i++ {
			l.Post(e.Now()+Time(i), e)
		}
		e.Run(e.Now() + 64)
	}
	burst() // first use grows the ring
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("64 lane posts + fires at depth 4096 = %v allocs, want 0", allocs)
	}
	if fired != 102*64 || e.Pending() != 4096 || l.Cap() != 64 {
		t.Errorf("fired %d, Pending() = %d, ring %d; want %d, 4096, 64", fired, e.Pending(), l.Cap(), 102*64)
	}
}

// TestLanesHoldOneHeapSlotEach: three lanes holding 1 000 items between
// them occupy three heap slots while Pending() counts every item; the items
// fire in (time, posting order) across the lanes, ties included, and no
// ring grows past twice the most items its lane held.
func TestLanesHoldOneHeapSlotEach(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var ls [3]*Lane
	for k := range ls {
		ls[k] = e.NewLane(func(arg any) { got = append(got, *arg.(*int)) })
	}
	const items = 1000
	at := make([]Time, items)
	for i := 0; i < items; i++ {
		k := i % 3
		at[i] = Time(i/3) * Time(k+1) // lane k steps by k+1: the lanes interleave and tie
		ls[k].Post(at[i], &i)
	}
	if len(e.queue) != 3 || e.Pending() != items {
		t.Fatalf("heap holds %d slots, Pending() = %d; want 3, %d", len(e.queue), e.Pending(), items)
	}
	e.RunUntilIdle()
	want := make([]int, items)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return at[want[a]] < at[want[b]] })
	if len(got) != items {
		t.Fatalf("%d items fired, want %d", len(got), items)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d is item %d, want %d", i, got[i], want[i])
		}
	}
	if e.Pending() != 0 || len(e.queue) != 0 {
		t.Errorf("Pending() = %d, heap %d after draining", e.Pending(), len(e.queue))
	}
	for k, l := range ls {
		if held := (items + 2 - k) / 3; l.Cap() > 2*held {
			t.Errorf("lane %d: ring of %d after holding %d items", k, l.Cap(), held)
		}
	}
}

// TestTimersStayOutOfTheLaneHeap: 4 096 armed timers and handle events
// wait in the cold heap, so the lane heap holds only the three lane
// heads that every packet hop re-keys, while Pending() counts everything
// and the whole set still fires in (at, seq) order.
func TestTimersStayOutOfTheLaneHeap(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	const timers = 4096
	for i := 0; i < timers; i++ {
		d := time.Second + Time(i%97)*time.Millisecond // TIME-WAIT-like, out of order
		if i%2 == 0 {
			NewTimer(e, record).Reset(d)
		} else {
			e.Schedule(d, record)
		}
	}
	var ls [3]*Lane
	for k := range ls {
		ls[k] = e.NewLane(func(any) { record() })
		for i := 0; i < 10; i++ {
			ls[k].Post(Time(i)*time.Millisecond*Time(k+1), e)
		}
	}
	if len(e.queue) != 3 || e.Pending() != timers+30 {
		t.Fatalf("lane heap holds %d slots, Pending() = %d; want 3, %d", len(e.queue), e.Pending(), timers+30)
	}
	e.RunUntilIdle()
	inOrder := sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	if len(fired) != timers+30 || !inOrder {
		t.Errorf("%d events fired, in time order %v; want %d, true", len(fired), inOrder, timers+30)
	}
	if e.Pending() != 0 || len(e.queue) != 0 || len(e.cold) != 0 {
		t.Errorf("Pending() = %d, heaps %d and %d after draining", e.Pending(), len(e.queue), len(e.cold))
	}
}

// TestLanePostOutOfOrderPanics: a lane is a FIFO, so a post earlier than
// its last item — or, on an empty lane, earlier than now — is a model bug.
func TestLanePostOutOfOrderPanics(t *testing.T) {
	e := NewEngine(1)
	l := e.NewLane(func(any) {})
	panics := func(post func()) (p bool) {
		defer func() { p = recover() != nil }()
		post()
		return false
	}
	l.Post(2*time.Millisecond, nil)
	if !panics(func() { l.Post(time.Millisecond, nil) }) {
		t.Error("a post before the lane's last item did not panic")
	}
	if panics(func() { l.Post(2*time.Millisecond, nil) }) {
		t.Error("a post at the lane's last time panicked")
	}
	e.RunUntilIdle()
	if !panics(func() { l.Post(time.Millisecond, nil) }) {
		t.Error("a post in the past on an empty lane did not panic")
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

// BenchmarkScheduleRun times one schedule + fire on a queue that already
// holds depth far-future events, through the handle-returning entry and
// through a lane. Each batch of 1024 lands at increasing instants and is
// then run, the shape of a link handing packets to the engine.
func BenchmarkScheduleRun(b *testing.B) {
	noop, noopArg := func() {}, func(any) {}
	for _, bc := range []struct {
		name     string
		depth    int
		schedule func(e *Engine, l *Lane, d Time)
	}{
		{"Schedule/depth=0", 0, func(e *Engine, _ *Lane, d Time) { e.Schedule(d, noop) }},
		{"Schedule/depth=4096", 4096, func(e *Engine, _ *Lane, d Time) { e.Schedule(d, noop) }},
		{"Lane/depth=0", 0, func(e *Engine, l *Lane, d Time) { l.Post(e.Now()+d, e) }},
		{"Lane/depth=4096", 4096, func(e *Engine, l *Lane, d Time) { l.Post(e.Now()+d, e) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine(1)
			l := e.NewLane(noopArg)
			for i := 0; i < bc.depth; i++ {
				e.Schedule(1000*time.Hour+Time(i), noop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.schedule(e, l, Time(i%1024))
				if i%1024 == 1023 {
					e.Run(e.Now() + 1024)
				}
			}
		})
	}
}
