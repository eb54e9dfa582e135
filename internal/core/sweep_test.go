package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
)

// sweepAgent returns the client agent of a one-middlebox chain with its
// clock past closedQuiet and no session open.
func sweepAgent() *Agent {
	env := newBenchEnv(1)
	env.eng.Run(2 * time.Second)
	return env.aClient
}

// sweepID is the session five-tuple of the port-th test record.
func sweepID(a *Agent, port int) packet.FiveTuple {
	return packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: a.Host.Addr, DstIP: packet.MakeAddr(10, 9, 9, 9), SrcPort: packet.Port(port), DstPort: 80}
}

// openSweep opens a plain record for the port-th tuple. A closed one has
// seen FINs both ways and nothing since time 0, so the next sweep is due
// to collect it; an open one is fresh and not due.
func openSweep(a *Agent, port int, closed bool) *Session {
	id := sweepID(a, port)
	sess := a.openSession(&Session{IDLeft: id, IDRight: id}, "test", 0)
	if closed {
		sess.finSeen = [2]bool{true, true}
		sess.lastActive = 0
	}
	return sess
}

// checkList asserts the live list's invariant: it holds exactly the
// distinct records a session-table key reaches, each once, at its idx.
func checkList(t *testing.T, a *Agent) {
	t.Helper()
	for i, s := range a.live {
		if s.idx != i || a.sessions[s.IDLeft] != s && a.sessions[s.IDRight] != s {
			t.Errorf("%s: live[%d] = %v (idx %d) is not keyed at its index", a.Host.Name, i, s.IDLeft, s.idx)
		}
	}
	for k, s := range a.sessions {
		if !a.listed(s) {
			t.Errorf("%s: key %v reaches unlisted record %v", a.Host.Name, k, s.IDLeft)
		}
	}
}

// TestCollectIdleRemovesInFiveTupleOrder: records opened in an order
// unlike five-tuple order are visited by EachSession, and removed by one
// GC tick, in IDLeft order. Removal emits an event, so a sweep that
// followed the live list's or the map's own order would reorder the
// event log between runs of one seed.
func TestCollectIdleRemovesInFiveTupleOrder(t *testing.T) {
	a := sweepAgent()
	const n = 64
	var want []packet.FiveTuple
	for i := 0; i < n; i++ {
		port := 1000 + (i*37)%n // a permutation of the ports
		openSweep(a, port, port%3 != 0)
		if port%3 != 0 {
			want = append(want, sweepID(a, port))
		}
	}
	// Remove one open record so the list is also swapped out of open order.
	a.removeSession(a.sessions[sweepID(a, 1002)])
	a.SetRecorder(obs.NewHub(a.eng).Recorder(a.Host.Name))
	byTuple := func(x, y packet.FiveTuple) int {
		if x.Less(y) {
			return -1
		}
		return 1
	}
	slices.SortFunc(want, byTuple)

	var visited []packet.FiveTuple
	a.EachSession(func(s *Session) { visited = append(visited, s.IDLeft) })
	if !slices.IsSortedFunc(visited, byTuple) {
		t.Errorf("EachSession visits %v, not five-tuple order", visited)
	}

	if got := a.CollectIdle(); got != len(want) {
		t.Fatalf("CollectIdle removed %d, want %d", got, len(want))
	}
	var closed []packet.FiveTuple
	for _, ev := range a.obs.Events() {
		if ev.Kind == obs.KSessionClose {
			closed = append(closed, ev.Sess)
		}
	}
	if !slices.Equal(closed, want) {
		t.Errorf("one tick closed %v,\nwant IDLeft order %v", closed, want)
	}
	if a.Sessions() != n-1-len(want) {
		t.Errorf("Sessions() = %d after the tick, want %d", a.Sessions(), n-1-len(want))
	}
	checkList(t, a)
}

// TestQuietGCTickAllocationFree: a tick over 2 048 live records of which
// none is due allocates nothing. Sorting every record, or building a set
// of the distinct ones, would allocate on every tick.
func TestQuietGCTickAllocationFree(t *testing.T) {
	a := sweepAgent()
	for i := 0; i < 2048; i++ {
		openSweep(a, 1000+i, false)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if a.CollectIdle() != 0 {
			t.Fatal("a quiet tick removed a session")
		}
	}); allocs != 0 {
		t.Errorf("quiet GC tick over %d sessions = %v allocs, want 0", a.Sessions(), allocs)
	}
}

// TestDisplacedSessionLeavesListWithLastKey pins the rule for a record
// another takes a key from (openSession under its IDLeft, egressSYN under
// its IDRight): it stays listed while its other key reaches it, leaves
// the list with its last key, and its removal then touches no key the
// newcomer holds.
func TestDisplacedSessionLeavesListWithLastKey(t *testing.T) {
	a := sweepAgent()
	left, right := sweepID(a, 1000), sweepID(a, 1001)
	nat := openSweep(a, 1000, false)
	nat.IDRight = right // a NAT hop: keyed on both sides, as egressSYN does
	a.bind(right, nat)
	if a.Sessions() != 1 {
		t.Fatalf("Sessions() = %d for one renamed session, want 1", a.Sessions())
	}
	byLeft := openSweep(a, 1000, false)
	if !a.listed(nat) || a.Sessions() != 2 {
		t.Errorf("record displaced from one of two keys: listed %v, Sessions() = %d; want true, 2", a.listed(nat), a.Sessions())
	}
	checkList(t, a)
	byRight := openSweep(a, 1001, false)
	if a.listed(nat) || a.Sessions() != 2 {
		t.Errorf("record displaced from its last key: listed %v, Sessions() = %d; want false, 2", a.listed(nat), a.Sessions())
	}
	checkList(t, a)
	collected := a.Stats.SessionsCollected
	a.removeSession(nat)
	if a.sessions[left] != byLeft || a.sessions[right] != byRight || a.Stats.SessionsCollected != collected {
		t.Error("removing an unlisted record dropped a key its displacer holds")
	}
	checkList(t, a)
}
