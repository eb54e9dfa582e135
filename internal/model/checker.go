// Package model is the Spin-equivalent verification of the Dysco
// reconfiguration protocol (§3.7). The paper designed the protocol in
// Promela and model-checked every configuration: "Spin checks the model
// for all possible executions, meaning all possible network delays and
// scheduling decisions".
//
// This package does the same with an explicit-state checker written in
// Go: protocol participants are finite-state machines communicating
// through FIFO channels; the checker explores every interleaving of
// message deliveries (and every nondeterministic environment choice) by
// depth-first search over hashed global states, checking the paper's
// properties:
//
//	P1 — when multiple left anchors contend to lock overlapping segments,
//	     exactly one of them succeeds;
//	P2 — no data is lost due to reconfiguration;
//	P3 — unless the new path cannot be set up, an attempted
//	     reconfiguration always succeeds;
//	P4 — the sequence and acknowledgment numbers received by end-hosts
//	     are correct;
//	P5 — all sessions terminate cleanly;
//	P6 — an anchor never finalizes while old-path bytes its peer's
//	     sender discarded are still in flight to it (added here: the
//	     implementation's FIN give-up, which the paper does not model);
//	plus absence of deadlock (a non-terminal state with no enabled
//	transition fails the check).
//
// Like the paper's Promela model, the models here re-state the protocol
// logic abstractly (small chains, few data tokens) rather than executing
// the implementation; configurations are small enough to enumerate
// exhaustively.
package model

import (
	"fmt"
	"strings"
)

// State is a global protocol state the checker can explore.
type State interface {
	// Key returns a canonical encoding for the visited set.
	Key() string
	// Next enumerates every successor state (one per enabled transition
	// or nondeterministic choice).
	Next() []State
	// Invariant returns an error description if a safety property is
	// violated in this state.
	Invariant() error
	// Terminal reports whether the protocol has finished in this state.
	Terminal() bool
	// TerminalCheck validates liveness-ish properties at a terminal state.
	TerminalCheck() error
}

// Stats summarizes one exhaustive exploration.
type Stats struct {
	States      int
	Transitions int
	Terminals   int
	Deepest     int
}

// Violation describes a property failure with its witness trace.
type Violation struct {
	Err   error
	Trace []string
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\ntrace (%d steps):\n", v.Err, len(v.Trace))
	for i, s := range v.Trace {
		fmt.Fprintf(&b, "  %2d: %s\n", i, s)
	}
	return b.String()
}

// Explore exhaustively explores the state space from init, checking
// invariants at every state, deadlock at non-terminal leaves, and
// terminal conditions at terminal states. maxStates bounds the search
// (0 = 4M states).
func Explore(init State, maxStates int) (Stats, *Violation) {
	if maxStates == 0 {
		maxStates = 4 << 20
	}
	visited := make(map[string]bool)
	var st Stats

	type frame struct {
		s     State
		trace []string
	}
	stack := []frame{{init, []string{"init"}}}
	visited[init.Key()] = true

	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.States++
		if len(f.trace) > st.Deepest {
			st.Deepest = len(f.trace)
		}
		if st.States > maxStates {
			return st, &Violation{Err: fmt.Errorf("state space exceeds %d states", maxStates), Trace: f.trace}
		}
		if err := f.s.Invariant(); err != nil {
			return st, &Violation{Err: err, Trace: f.trace}
		}
		succ := f.s.Next()
		if len(succ) == 0 {
			if !f.s.Terminal() {
				return st, &Violation{
					Err:   fmt.Errorf("deadlock: no enabled transition in non-terminal state %s", f.s.Key()),
					Trace: f.trace,
				}
			}
			st.Terminals++
			if err := f.s.TerminalCheck(); err != nil {
				return st, &Violation{Err: err, Trace: f.trace}
			}
			continue
		}
		for _, n := range succ {
			st.Transitions++
			k := n.Key()
			if visited[k] {
				continue
			}
			visited[k] = true
			trace := append(append([]string(nil), f.trace...), k)
			stack = append(stack, frame{n, trace})
		}
	}
	return st, nil
}
