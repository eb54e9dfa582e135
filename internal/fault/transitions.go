package fault

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/packet"
)

// The transition oracle holds every run to the verified model (§3.7): each
// lock and reconfiguration transition the agents log must be an edge of
// model.LockTable / model.ReconfigTable, each machine instance must start
// in one of its initial states, and each transition must leave the state
// the instance's previous one entered. The edges a run takes are counted,
// so a sweep shows which model edges no run exercises.

// Edge names one transition of a model table.
type Edge struct {
	Machine string `json:"machine"`
	From    string `json:"from"`
	To      string `json:"to"`
}

// EdgeCount is how many times a sweep's runs took one model edge.
type EdgeCount struct {
	Edge
	Count int `json:"count"`
}

// machine joins one event kind to its model table: byEvent maps the
// names the event log carries to the table's state names.
type machine struct {
	kind    obs.Kind
	table   model.FSMTable
	byEvent map[string]string
}

// machines joins the lock and reconfiguration events to their tables.
func machines() []machine {
	out := []machine{{kind: obs.KLock, table: model.LockTable()}, {kind: obs.KReconfig, table: model.ReconfigTable()}}
	for i := range out {
		out[i].byEvent = map[string]string{}
		for _, s := range out[i].table.States {
			out[i].byEvent[model.EventName(s)] = s
		}
	}
	return out
}

// modelEdges lists every edge of the machines' tables, each in table
// order.
func modelEdges(ms []machine) []Edge {
	var out []Edge
	for _, m := range ms {
		for _, e := range m.table.Edges {
			out = append(out, Edge{m.table.Machine, e.From, e.To})
		}
	}
	return out
}

// instance identifies one machine instance in the merged log: a lock
// machine is a session record at a host (reset when the host opens the
// record), a reconfiguration machine an attempt at an anchor (from its
// birth event, the one with no From).
type instance struct {
	kind obs.Kind
	host string
	sess packet.FiveTuple
	req  uint64
}

// checkTransitions returns the oracle's violations over one run's events
// and adds every model edge the run took to taken.
func checkTransitions(ms []machine, events []obs.Event, taken map[Edge]int) []string {
	byKind := map[obs.Kind]machine{}
	for _, m := range ms {
		byKind[m.kind] = m
	}
	last := map[instance]string{}
	var v []string
	for _, e := range events {
		if e.Kind == obs.KSessionOpen {
			delete(last, instance{kind: obs.KLock, host: e.Host, sess: e.Sess})
			continue
		}
		m, ok := byKind[e.Kind]
		if !ok {
			continue
		}
		id := instance{kind: e.Kind, host: e.Host, sess: e.Sess}
		if e.Kind == obs.KReconfig {
			id = instance{kind: e.Kind, host: e.Host, req: e.ReqID}
		}
		prev, seen := last[id]
		last[id] = e.To
		from, to := m.byEvent[e.From], m.byEvent[e.To]
		at := func() string {
			return fmt.Sprintf("model: %s %q -> %q at %v on %s", m.table.Machine, e.From, e.To, e.Time, e.Host)
		}
		switch {
		case e.From == "":
			if !slices.Contains(m.table.Initials, to) {
				v = append(v, fmt.Sprintf("%s: born outside the initial states %v", at(), m.table.Initials))
			}
		case !seen && e.Kind == obs.KReconfig:
			v = append(v, at()+": the attempt has no birth event")
		case !seen && !slices.Contains(m.table.Initials, from):
			v = append(v, fmt.Sprintf("%s: the instance starts outside the initial states %v", at(), m.table.Initials))
		case seen && prev != e.From:
			v = append(v, fmt.Sprintf("%s: the instance is in %q", at(), prev))
		case !m.table.HasEdge(from, to):
			v = append(v, at()+": not an edge of the model")
		default:
			taken[Edge{m.table.Machine, from, to}]++
		}
	}
	return v
}
