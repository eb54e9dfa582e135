package model

import (
	"strings"
	"testing"
)

func explore(t *testing.T, init State, name string) Stats {
	t.Helper()
	st, v := Explore(init, 0)
	if v != nil {
		t.Fatalf("%s: %v", name, v)
	}
	if st.Terminals == 0 {
		t.Fatalf("%s: no terminal states reached", name)
	}
	t.Logf("%s: %d states, %d transitions, %d terminals, depth %d",
		name, st.States, st.Transitions, st.Terminals, st.Deepest)
	return st
}

func TestLockSingleRequest(t *testing.T) {
	explore(t, NewLockState(&LockConfig{
		Agents:   3,
		Requests: []Segment{{0, 2}},
	}), "single request on 3-agent chain")
}

func TestLockTwoOverlapping(t *testing.T) {
	// The Figure 5 scenario: X locks [X..Z] while W locks [W..Y].
	explore(t, NewLockState(&LockConfig{
		Agents:   4,
		Requests: []Segment{{1, 3}, {0, 2}},
	}), "overlapping requests (Figure 5)")
}

func TestLockTwoIdenticalSegments(t *testing.T) {
	explore(t, NewLockState(&LockConfig{
		Agents:   3,
		Requests: []Segment{{0, 2}, {0, 2}},
	}), "identical segments")
}

func TestLockDisjointBothWin(t *testing.T) {
	st, v := Explore(NewLockState(&LockConfig{
		Agents:   5,
		Requests: []Segment{{0, 2}, {2, 4}},
	}), 0)
	if v != nil {
		t.Fatalf("disjoint: %v", v)
	}
	if st.Terminals == 0 {
		t.Fatal("no terminals")
	}
}

func TestLockThreeWayContention(t *testing.T) {
	explore(t, NewLockState(&LockConfig{
		Agents:   5,
		Requests: []Segment{{0, 3}, {1, 4}, {2, 4}},
	}), "three overlapping requests")
}

func TestLockCancelReleasesEverything(t *testing.T) {
	explore(t, NewLockState(&LockConfig{
		Agents:        4,
		Requests:      []Segment{{0, 3}},
		WinnerCancels: true,
	}), "cancel after lock (§3.6)")
}

func TestLockCancelWithContention(t *testing.T) {
	explore(t, NewLockState(&LockConfig{
		Agents:        4,
		Requests:      []Segment{{0, 2}, {1, 3}},
		WinnerCancels: true,
	}), "cancel with contention")
}

func TestTwoPathNoDelta(t *testing.T) {
	explore(t, NewTwoPathState(&TwoPathConfig{N: 3}), "two-path, 3 tokens, delta 0")
}

func TestTwoPathWithDelta(t *testing.T) {
	explore(t, NewTwoPathState(&TwoPathConfig{N: 3, Delta: 1000}), "two-path, delta 1000 (§3.4)")
}

func TestTwoPathLateSwitch(t *testing.T) {
	explore(t, NewTwoPathState(&TwoPathConfig{N: 4, Delta: 7, SwitchAfterMin: 2}),
		"two-path, switch after 2 old-path tokens")
}

func TestTwoPathImmediateSwitch(t *testing.T) {
	explore(t, NewTwoPathState(&TwoPathConfig{N: 2, SwitchAfterMin: 0}), "switch before any data")
}

// TestCheckerDetectsInjectedBug enables the fault-injection switch (the
// left anchor translating the delta on the wrong side) and verifies the
// checker reports a P4 violation with a witness trace — evidence the
// properties are not vacuous.
func TestCheckerDetectsInjectedBug(t *testing.T) {
	init := NewTwoPathState(&TwoPathConfig{N: 3, Delta: 5, SwitchAfterMin: 1, BugDoubleDelta: true})
	_, v := Explore(init, 0)
	if v == nil {
		t.Fatal("checker missed the injected delta bug")
	}
	if !strings.Contains(v.Err.Error(), "P4") {
		t.Fatalf("unexpected violation: %v", v.Err)
	}
	t.Logf("caught: %v (trace %d steps)", v.Err, len(v.Trace))
}

// TestTwoPathSilentGiveUp: a terminating proxy acknowledges L's old-path
// tokens before R has them, and either anchor may give up on its peer's
// FIN once the old path toward it has gone silent. No execution finalizes
// R ahead of a discarded token (P6), and every one still tears down (P5).
func TestTwoPathSilentGiveUp(t *testing.T) {
	explore(t, NewTwoPathState(&TwoPathConfig{N: 3, Delta: 11, Terminating: true}),
		"terminating proxy, silent give-up")
}

// TestCheckerFindsEarlyGiveUp: with a give-up that counts every retry,
// silent or not, the checker reaches R finalizing while tokens L has seen
// acknowledged by the proxy are still on the old path (P6).
func TestCheckerFindsEarlyGiveUp(t *testing.T) {
	init := NewTwoPathState(&TwoPathConfig{N: 3, Delta: 11, Terminating: true, BugGiveUpAnyTime: true})
	_, v := Explore(init, 0)
	if v == nil {
		t.Fatal("checker missed the early give-up")
	}
	if !strings.Contains(v.Err.Error(), "P6") {
		t.Fatalf("unexpected violation: %v", v.Err)
	}
	t.Logf("caught: %v (trace %d steps)", v.Err, len(v.Trace))
}

func BenchmarkLockModelFig5(b *testing.B) {
	cfg := &LockConfig{Agents: 4, Requests: []Segment{{1, 3}, {0, 2}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, v := Explore(NewLockState(cfg), 0); v != nil {
			b.Fatal(v)
		}
	}
}

func BenchmarkTwoPathModel(b *testing.B) {
	cfg := &TwoPathConfig{N: 3, Delta: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, v := Explore(NewTwoPathState(cfg), 0); v != nil {
			b.Fatal(v)
		}
	}
}

func TestChainEstablishment(t *testing.T) {
	explore(t, NewChainState(&ChainConfig{Hops: 2, NATHop: -1}), "chain setup, 2 hops")
}

func TestChainEstablishmentWithNAT(t *testing.T) {
	explore(t, NewChainState(&ChainConfig{Hops: 3, NATHop: 1}), "chain setup, NAT at hop 1")
}

func TestChainEstablishmentWithDupSYN(t *testing.T) {
	explore(t, NewChainState(&ChainConfig{Hops: 2, NATHop: 0, DupSYN: true}),
		"chain setup, duplicate SYN + NAT")
}

func TestChainEstablishmentLong(t *testing.T) {
	explore(t, NewChainState(&ChainConfig{Hops: 4, NATHop: -1, DupSYN: true}),
		"chain setup, 4 hops, duplicate SYN")
}
