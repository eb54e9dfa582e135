package model

import "sort"

// This file exports the verified transition relations as data, so tooling
// outside the checker — dyscolint's fsmconform analyzer in particular —
// can compare the implementation in internal/core against what the model
// actually explores. The lock table is *derived*: a recorder is attached
// to the lock model and a battery of configurations is explored
// exhaustively, so the exported relation is exactly the set of lock
// micro-steps the verified executions take. The reconfiguration table is
// declared (the two-path model abstracts anchor phases into counters
// rather than a per-anchor enum) and documents the phase machine that the
// lock + two-path models jointly verify.

// FSMEdge is one transition of an exported state machine. States are
// named with the identifiers internal/core uses for the corresponding
// enum constants, which is what lets the conformance check join the two
// worlds without either package importing the other's types.
type FSMEdge struct {
	From  string
	To    string
	Label string // protocol event driving the transition, for diagnostics
}

// FSMTable is the transition relation of one exported machine.
type FSMTable struct {
	// Machine is the table's name: "lock" or "reconfig".
	Machine string
	// States lists every state, in enum declaration order.
	States []string
	// Initials are the states a machine instance may be created in. The
	// lock machine starts at the zero value (Unlocked); reconfiguration
	// anchors are born directly into RcLocking (left) or RcSettingUp
	// (right) by composite literal.
	Initials []string
	// Edges is the transition relation, sorted by (From, To) in enum
	// declaration order. Self-loops are not part of the relation.
	Edges []FSMEdge
}

// stateIndex returns the declaration-order index of a state name, for
// sorting edges deterministically.
func (t *FSMTable) stateIndex(name string) int {
	for i, s := range t.States {
		if s == name {
			return i
		}
	}
	return len(t.States)
}

func (t *FSMTable) sortEdges() {
	sort.Slice(t.Edges, func(i, j int) bool {
		a, b := t.Edges[i], t.Edges[j]
		if x, y := t.stateIndex(a.From), t.stateIndex(b.From); x != y {
			return x < y
		}
		return t.stateIndex(a.To) < t.stateIndex(b.To)
	})
}

// HasEdge reports whether from→to is in the relation.
func (t *FSMTable) HasEdge(from, to string) bool {
	for _, e := range t.Edges {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

// lockStateNames maps the model's lock constants to core's identifiers.
var lockStateNames = [...]string{
	unlocked:    "Unlocked",
	lockPending: "LockPending",
	locked:      "Locked",
}

// lockEdgeLabels documents the protocol event behind each derived edge.
var lockEdgeLabels = map[[2]string]string{
	{"Unlocked", "LockPending"}: "requestLock",
	{"LockPending", "Locked"}:   "ackLock",
	{"LockPending", "Unlocked"}: "nackLock|cancelLock",
	{"Locked", "Unlocked"}:      "oldPathFIN|cancelLock",
}

// lockTableConfigs is the battery explored to derive the lock table. It
// mirrors internal/exp's verification battery (model cannot import exp):
// a plain chain, overlapping contention (exercising block/nack), and a
// winner that cancels (§3.6).
var lockTableConfigs = []LockConfig{
	{Agents: 4, Requests: []Segment{{Left: 0, Right: 3}}},
	{Agents: 4, Requests: []Segment{{Left: 0, Right: 2}, {Left: 1, Right: 3}}},
	{Agents: 3, Requests: []Segment{{Left: 0, Right: 2}, {Left: 0, Right: 2}}},
	{Agents: 3, Requests: []Segment{{Left: 0, Right: 2}}, WinnerCancels: true},
}

// LockTable derives the subsession lock machine (§3.2) by exhaustively
// exploring the battery with a transition recorder attached. It panics if
// any configuration fails verification: a table derived from a violating
// run would be meaningless.
func LockTable() FSMTable {
	rec := &lockRecorder{edges: make(map[[2]int8]bool)}
	for i := range lockTableConfigs {
		cfg := lockTableConfigs[i]
		init := NewLockState(&cfg).(*lockState)
		init.rec = rec
		if _, v := Explore(init, 0); v != nil {
			panic("model: LockTable battery failed verification: " + v.Error())
		}
	}
	t := FSMTable{
		Machine:  "lock",
		States:   lockStateNames[:],
		Initials: []string{"Unlocked"},
	}
	for e := range rec.edges {
		from, to := lockStateNames[e[0]], lockStateNames[e[1]]
		t.Edges = append(t.Edges, FSMEdge{From: from, To: to, Label: lockEdgeLabels[[2]string{from, to}]})
	}
	t.sortEdges()
	return t
}

// ReconfigTable is the per-anchor reconfiguration phase machine. Anchors
// are born locking (left) or setting up (right, which skips locking by
// accepting the lock); RcDone and RcFailed are absorbing.
func ReconfigTable() FSMTable {
	t := FSMTable{
		Machine:  "reconfig",
		States:   []string{"RcLocking", "RcSettingUp", "RcStateWait", "RcTwoPath", "RcDone", "RcFailed"},
		Initials: []string{"RcLocking", "RcSettingUp"},
		Edges: []FSMEdge{
			{From: "RcLocking", To: "RcSettingUp", Label: "ackLock"},
			{From: "RcLocking", To: "RcFailed", Label: "nackLock|timeout"},
			{From: "RcSettingUp", To: "RcStateWait", Label: "newPathSYNACK+stateTransfer"},
			{From: "RcSettingUp", To: "RcTwoPath", Label: "newPathSYNACK|newPathACK|oldPathFIN"},
			{From: "RcSettingUp", To: "RcFailed", Label: "cancelLock|timeout"},
			{From: "RcStateWait", To: "RcTwoPath", Label: "stateReady"},
			{From: "RcStateWait", To: "RcFailed", Label: "cancelLock|timeout"},
			{From: "RcTwoPath", To: "RcDone", Label: "oldPathDrained|silentGiveUp"},
			{From: "RcTwoPath", To: "RcFailed", Label: "cancelLock|timeout"},
		},
	}
	t.sortEdges()
	return t
}

// Tables returns every exported machine, in a fixed order.
func Tables() []FSMTable {
	return []FSMTable{LockTable(), ReconfigTable()}
}
