// Package policy implements the Dysco policy server (§2.2): service-chain
// policies combining a five-tuple predicate with an ordered list of
// middlebox types, instance pools with round-robin or least-load
// selection, distribution of compiled policies to agents, and the
// coarse-grained reconfiguration commands the paper describes (replace an
// instance in all of its sessions; add a scrubber to all matching
// sessions). The policy server never touches individual sessions — agents
// do all per-session work.
package policy

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/packet"
)

// Predicate matches five-tuples, BPF-filter style: zero fields are
// wildcards.
type Predicate struct {
	Proto   packet.Proto
	SrcIP   packet.Addr
	DstIP   packet.Addr
	SrcPort packet.Port
	DstPort packet.Port
}

// Matches reports whether the five-tuple satisfies the predicate.
func (pr Predicate) Matches(t packet.FiveTuple) bool {
	if pr.Proto != 0 && pr.Proto != t.Proto {
		return false
	}
	if pr.SrcIP != 0 && pr.SrcIP != t.SrcIP {
		return false
	}
	if pr.DstIP != 0 && pr.DstIP != t.DstIP {
		return false
	}
	if pr.SrcPort != 0 && pr.SrcPort != t.SrcPort {
		return false
	}
	if pr.DstPort != 0 && pr.DstPort != t.DstPort {
		return false
	}
	return true
}

// String renders the predicate in a BPF-ish syntax.
func (pr Predicate) String() string {
	var parts []string
	if pr.Proto != 0 {
		parts = append(parts, pr.Proto.String())
	}
	if pr.SrcIP != 0 {
		parts = append(parts, "src "+pr.SrcIP.String())
	}
	if pr.DstIP != 0 {
		parts = append(parts, "dst "+pr.DstIP.String())
	}
	if pr.SrcPort != 0 {
		parts = append(parts, fmt.Sprintf("sport %d", pr.SrcPort))
	}
	if pr.DstPort != 0 {
		parts = append(parts, fmt.Sprintf("dport %d", pr.DstPort))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, " and ")
}

// SelectMode chooses how an instance is picked from a middlebox type pool.
type SelectMode int

// Instance selection modes (§2.2: "round-robin fashion or based on load").
const (
	RoundRobin SelectMode = iota
	LeastLoad
)

// Pool is the set of instances of one middlebox type.
type Pool struct {
	Type      string
	Instances []packet.Addr
	Mode      SelectMode

	next int
	load map[packet.Addr]int
}

// NewPool creates an instance pool.
func NewPool(typ string, mode SelectMode, instances ...packet.Addr) *Pool {
	return &Pool{
		Type: typ, Instances: instances, Mode: mode,
		load: make(map[packet.Addr]int),
	}
}

// Pick selects an instance and accounts one session of load to it.
func (p *Pool) Pick() (packet.Addr, error) {
	if len(p.Instances) == 0 {
		return 0, fmt.Errorf("policy: pool %q is empty", p.Type)
	}
	var chosen packet.Addr
	switch p.Mode {
	case LeastLoad:
		chosen = p.Instances[0]
		for _, in := range p.Instances {
			if p.load[in] < p.load[chosen] {
				chosen = in
			}
		}
	case RoundRobin:
		chosen = p.Instances[p.next%len(p.Instances)]
		p.next++
	default:
		panic(fmt.Sprintf("policy: unknown select mode %d", p.Mode))
	}
	p.load[chosen]++
	return chosen, nil
}

// Load reports the sessions assigned to an instance since the pool was
// created. Nothing reports a session's end back to the pool, so it counts
// assignments, not live sessions, and LeastLoad balances assignments.
func (p *Pool) Load(a packet.Addr) int { return p.load[a] }

// Rule binds a predicate to a chain of middlebox types.
type Rule struct {
	Pred  Predicate
	Chain []string // middlebox type names, resolved through pools
}

// Server is the policy server: rules, pools, and the agents it manages.
// It can be driven programmatically or through Exec (the command-line
// interface of §4.1).
type Server struct {
	rules []Rule
	pools map[string]*Pool
	// Compiled policies are cached/pre-loaded in agents: the server is
	// not on the session path (§2.2).
	agents map[string]*core.Agent

	// Selections counts chain computations (should stay proportional to
	// new sessions, not packets).
	Selections uint64
}

// NewServer returns an empty policy server.
func NewServer() *Server {
	return &Server{
		pools:  make(map[string]*Pool),
		agents: make(map[string]*core.Agent),
	}
}

// AddPool registers an instance pool for a middlebox type.
func (s *Server) AddPool(p *Pool) { s.pools[p.Type] = p }

// Pool returns a pool by type name.
func (s *Server) Pool(typ string) *Pool { return s.pools[typ] }

// AddRule appends a service-chaining rule (first match wins).
func (s *Server) AddRule(r Rule) { s.rules = append(s.rules, r) }

// Rules returns the installed rules.
func (s *Server) Rules() []Rule { return s.rules }

// Attach registers an agent under a name and installs the compiled policy
// into it. The agent resolves chains locally from the distributed rules;
// the server is consulted only through this compiled closure, never per
// packet.
func (s *Server) Attach(name string, a *core.Agent) {
	s.agents[name] = a
	a.Policy = func(p *packet.Packet) []packet.Addr {
		return s.chainFor(p.Tuple)
	}
}

// chainFor resolves the first matching rule to concrete instances.
func (s *Server) chainFor(t packet.FiveTuple) []packet.Addr {
	for _, r := range s.rules {
		if !r.Pred.Matches(t) {
			continue
		}
		s.Selections++
		var chain []packet.Addr
		for _, typ := range r.Chain {
			pool, ok := s.pools[typ]
			if !ok {
				return nil
			}
			inst, err := pool.Pick()
			if err != nil {
				return nil
			}
			chain = append(chain, inst)
		}
		return chain
	}
	return nil
}

// ReplaceInstanceEverywhere sends the coarse-grained maintenance command
// of §2.2: the agent hosting the old instance triggers, for every ongoing
// session it carries, a reconfiguration replacing itself with newInst.
// Returns how many session reconfigurations were triggered.
func (s *Server) ReplaceInstanceEverywhere(old *core.Agent, newInst packet.Addr) int {
	// A stateful middlebox migrates its per-session state to the
	// replacement instance; without that the new instance would drop the
	// mid-stream sessions (Figure 15).
	var from, to packet.Addr
	if _, stateful := old.App.(core.StatefulApp); stateful {
		from, to = old.Host.Addr, newInst
	}
	n := 0
	old.EachSession(func(sess *core.Session) {
		if sess.LeftHost == 0 || sess.RightHost == 0 {
			return
		}
		if old.TriggerReplace(sess.IDLeft, []packet.Addr{newInst}, from, to) == nil {
			n++
		}
	})
	return n
}

// InsertForMatching tells a left-anchor agent to insert mboxAddr into the
// chain of every ongoing session matching pred (the "add a scrubber for
// suspicious traffic" command of §2.2). Returns sessions triggered.
func (s *Server) InsertForMatching(left *core.Agent, pred Predicate, mboxAddr packet.Addr) int {
	n := 0
	left.EachSession(func(sess *core.Session) {
		if !pred.Matches(sess.IDLeft) || !sess.IsLeftEnd() {
			return
		}
		err := left.StartReconfig(sess.IDLeft, core.ReconfigOptions{
			RightAnchor:    sess.RightHost,
			NewMiddleboxes: []packet.Addr{mboxAddr},
		})
		if err == nil {
			n++
		}
	})
	return n
}
