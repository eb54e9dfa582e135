package model

import "testing"

// TestLockTableDerivation checks the derived lock relation is exactly the
// §3.2 machine: the battery must exercise every edge, and exploration must
// never take an edge outside it.
func TestLockTableDerivation(t *testing.T) {
	got := LockTable()
	want := []FSMEdge{
		{From: "Unlocked", To: "LockPending"},
		{From: "LockPending", To: "Locked"},
		{From: "LockPending", To: "Unlocked"},
		{From: "Locked", To: "Unlocked"},
	}
	if len(got.Edges) != len(want) {
		t.Fatalf("lock table has %d edges, want %d: %+v", len(got.Edges), len(want), got.Edges)
	}
	for _, e := range want {
		if !got.HasEdge(e.From, e.To) {
			t.Errorf("derived lock table is missing %s->%s", e.From, e.To)
		}
	}
	for _, e := range got.Edges {
		if e.Label == "" {
			t.Errorf("edge %s->%s has no label", e.From, e.To)
		}
	}
}

// TestTablesDeterministic guards the sorted edge order the fault sweep's
// per-edge counts are listed in.
func TestTablesDeterministic(t *testing.T) {
	tables := func() []FSMTable { return []FSMTable{LockTable(), ReconfigTable()} }
	a, b := tables(), tables()
	for i := range a {
		if a[i].Machine != b[i].Machine || len(a[i].Edges) != len(b[i].Edges) {
			t.Fatalf("table %d differs between calls", i)
		}
		for j := range a[i].Edges {
			if a[i].Edges[j] != b[i].Edges[j] {
				t.Fatalf("edge order differs: %+v vs %+v", a[i].Edges[j], b[i].Edges[j])
			}
		}
	}
}

// TestReconfigTableShape sanity-checks the declared reconfiguration
// machine: initials are valid states, every state except the initials is
// reachable, absorbing states have no out-edges.
func TestReconfigTableShape(t *testing.T) {
	tbl := ReconfigTable()
	valid := make(map[string]bool)
	for _, s := range tbl.States {
		valid[s] = true
	}
	reach := make(map[string]bool)
	for _, s := range tbl.Initials {
		if !valid[s] {
			t.Errorf("initial %q is not a declared state", s)
		}
		reach[s] = true
	}
	for changed := true; changed; {
		changed = false
		for _, e := range tbl.Edges {
			if !valid[e.From] || !valid[e.To] {
				t.Fatalf("edge %s->%s mentions undeclared state", e.From, e.To)
			}
			if reach[e.From] && !reach[e.To] {
				reach[e.To] = true
				changed = true
			}
		}
	}
	for _, s := range tbl.States {
		if !reach[s] {
			t.Errorf("state %q unreachable from initials", s)
		}
	}
	for _, e := range tbl.Edges {
		if e.From == "RcDone" || e.From == "RcFailed" {
			t.Errorf("absorbing state has out-edge %s->%s", e.From, e.To)
		}
	}
}
