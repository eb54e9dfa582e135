// Package steering implements the baseline the paper argues against
// (§1, §7.1): service chaining by a logically centralized controller that
// installs fine-grained forwarding rules in network elements. It exists so
// experiments can compare state growth, controller involvement, and
// five-tuple-modification breakage against Dysco's session-protocol
// approach.
package steering

import (
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Switch turns a host into a rule-driven element: packets matching an
// exact five-tuple rule are forwarded to the rule's next hop regardless of
// destination-based routing. Packets without a rule fall through to
// normal processing.
type Switch struct {
	Host  *netsim.Host
	rules map[packet.FiveTuple]packet.Addr
	// Hits and Misses count rule-table lookups.
	Hits   uint64
	Misses uint64
}

// Lookup consults the rule table for a packet with the given tuple that
// arrived from the given hop, counting the hit or miss. An in-port match
// (the packet is returning from the hop the rule steers to) counts as a
// miss: the rule's job is done and normal forwarding takes over.
func (sw *Switch) Lookup(tuple packet.FiveTuple, arrivedFrom packet.Addr) (packet.Addr, bool) {
	next, ok := sw.rules[tuple]
	if !ok || arrivedFrom == next {
		sw.Misses++
		return 0, false
	}
	sw.Hits++
	return next, true
}

// NewSwitch attaches a rule table to a host via an ingress hook.
func NewSwitch(h *netsim.Host) *Switch {
	sw := &Switch{Host: h, rules: make(map[packet.FiveTuple]packet.Addr)}
	h.AddIngressHook(func(p *packet.Packet, dir netsim.Direction) netsim.Verdict {
		if !p.IsTCP() {
			return netsim.Pass
		}
		next, ok := sw.Lookup(p.Tuple, p.ArrivedFrom)
		if !ok {
			return netsim.Pass
		}
		if p.Tuple.DstIP == h.Addr {
			return netsim.Pass
		}
		if p.TTL <= 1 {
			return netsim.Drop
		}
		p.TTL--
		//lint:ignore rewritetaint rule-based steering forwards the original header untouched by design — the resulting breakage under five-tuple-modifying middleboxes is the baseline this package exists to measure (§1)
		h.SendVia(next, p)
		return netsim.Consume
	})
	return sw
}

// Install adds an exact-match rule.
func (sw *Switch) Install(match packet.FiveTuple, nextHop packet.Addr) {
	sw.rules[match] = nextHop
}

// Remove deletes a rule.
func (sw *Switch) Remove(match packet.FiveTuple) { delete(sw.rules, match) }

// Rules returns the number of installed rules — the per-element state the
// paper's introduction complains about.
func (sw *Switch) Rules() int { return len(sw.rules) }

// Controller is the logically centralized rule installer. Unlike the
// Dysco policy server, it must act per session and per switch.
type Controller struct {
	switches []*Switch
	// RulesInstalled counts every installed rule (controller load and
	// network state, the §1 scaling argument).
	RulesInstalled uint64
	// Events counts controller invocations.
	Events uint64
}

// NewController returns an empty controller.
func NewController() *Controller { return &Controller{} }

// AddSwitch registers a switch with the controller.
func (c *Controller) AddSwitch(sw *Switch) { c.switches = append(c.switches, sw) }

// Switches returns the registered switches.
func (c *Controller) Switches() []*Switch { return c.switches }

// switchAt finds the switch on a host address.
func (c *Controller) switchAt(a packet.Addr) *Switch {
	for _, sw := range c.switches {
		if sw.Host.Addr == a {
			return sw
		}
	}
	return nil
}

// InstallChain installs, for one session, the forwarding rules that steer
// its packets through the chain of (switch, middlebox-host) waypoints and
// back — two rules (one per direction) per switch on the path. Returns
// rules installed. The per-session, per-switch cost is the point of the
// comparison: Dysco needs zero network state.
func (c *Controller) InstallChain(session packet.FiveTuple, waypoints []packet.Addr) int {
	c.Events++
	installed := 0
	fwd := session
	rev := session.Reverse()
	for i, wp := range c.pathOf(waypoints, session) {
		sw := c.switchAt(wp.at)
		if sw == nil {
			continue
		}
		sw.Install(fwd, wp.next)
		sw.Install(rev, wp.prev)
		installed += 2
		_ = i
	}
	c.RulesInstalled += uint64(installed)
	return installed
}

// RemoveChain uninstalls a session's rules from every switch.
func (c *Controller) RemoveChain(session packet.FiveTuple) {
	c.Events++
	for _, sw := range c.switches {
		sw.Remove(session)
		sw.Remove(session.Reverse())
	}
}

type hop struct {
	at   packet.Addr // switch
	next packet.Addr // next hop for forward-direction packets
	prev packet.Addr // next hop for reverse-direction packets
}

// pathOf expands waypoints into per-switch next hops: each switch sends
// forward packets toward the first waypoint and reverse packets toward
// the last (the reverse path traverses the chain backwards). The
// controller must know the topology; here every switch is assumed
// adjacent to all waypoints (the star testbed).
func (c *Controller) pathOf(waypoints []packet.Addr, session packet.FiveTuple) []hop {
	if len(c.switches) == 0 {
		return nil
	}
	var hops []hop
	for _, sw := range c.switches {
		next := session.DstIP
		prev := session.SrcIP
		if len(waypoints) > 0 {
			next = waypoints[0]
			prev = waypoints[len(waypoints)-1]
		}
		hops = append(hops, hop{at: sw.Host.Addr, next: next, prev: prev})
	}
	return hops
}

// TotalRules sums installed rules across all switches.
func (c *Controller) TotalRules() int {
	n := 0
	for _, sw := range c.switches {
		n += sw.Rules()
	}
	return n
}
