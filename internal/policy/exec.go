package policy

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"repro/internal/packet"
)

// Exec runs one command of the policy server's command-line interface
// (§4.1: "a simple command-line interface for specifying the
// service-chaining policies and trigger reconfiguration of live sessions")
// and returns its output. Commands:
//
//	pool add <type> <rr|least> <addr>...
//	rule add [dport N] [sport N] [dst A.B.C.D] [src A.B.C.D] chain <type>...
//	show pools | show rules
//	replace <agent> <new-instance-addr>
//	insert <agent> [dport N ...] <mbox-addr>
func (s *Server) Exec(line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil
	}
	switch fields[0] {
	case "pool":
		if len(fields) < 5 || fields[1] != "add" {
			return "", fmt.Errorf("usage: pool add <type> <rr|least> <addr>...")
		}
		var mode SelectMode
		switch fields[3] {
		case "rr":
			mode = RoundRobin
		case "least":
			mode = LeastLoad
		default:
			return "", fmt.Errorf("pool mode %q: want rr or least", fields[3])
		}
		var addrs []packet.Addr
		for _, a := range fields[4:] {
			ip, err := parseAddr(a)
			if err != nil {
				return "", err
			}
			addrs = append(addrs, ip)
		}
		s.AddPool(NewPool(fields[2], mode, addrs...))
		return fmt.Sprintf("pool %s: %d instances", fields[2], len(addrs)), nil

	case "rule":
		if len(fields) < 2 || fields[1] != "add" {
			return "", fmt.Errorf("usage: rule add [match...] chain <type>...")
		}
		pred, chain, err := parseRule(fields[2:])
		if err != nil {
			return "", err
		}
		s.AddRule(Rule{Pred: pred, Chain: chain})
		return fmt.Sprintf("rule %d: %s -> %s", len(s.rules), pred, strings.Join(chain, ",")), nil

	case "show":
		if len(fields) < 2 {
			return "", fmt.Errorf("usage: show pools|rules")
		}
		var b strings.Builder
		switch fields[1] {
		case "pools":
			typs := make([]string, 0, len(s.pools))
			for typ := range s.pools {
				typs = append(typs, typ)
			}
			sort.Strings(typs)
			for _, typ := range typs {
				p := s.pools[typ]
				fmt.Fprintf(&b, "%s:", typ)
				for _, in := range p.Instances {
					fmt.Fprintf(&b, " %v(load=%d)", in, p.Load(in))
				}
				b.WriteString("\n")
			}
		case "rules":
			for i, r := range s.rules {
				fmt.Fprintf(&b, "%d: %s -> %s\n", i+1, r.Pred, strings.Join(r.Chain, ","))
			}
		default:
			return "", fmt.Errorf("usage: show pools|rules")
		}
		return strings.TrimRight(b.String(), "\n"), nil

	case "replace":
		if len(fields) != 3 {
			return "", fmt.Errorf("usage: replace <agent> <new-instance-addr>")
		}
		a := s.agents[fields[1]]
		if a == nil {
			return "", fmt.Errorf("unknown agent %q", fields[1])
		}
		addr, err := parseAddr(fields[2])
		if err != nil {
			return "", err
		}
		n := s.ReplaceInstanceEverywhere(a, addr)
		return fmt.Sprintf("triggered %d session reconfigurations", n), nil

	case "insert":
		// insert <agent> [match...] <mbox-addr>: add a middlebox to every
		// live matching session anchored at the agent (§2.2 scrubber case).
		if len(fields) < 3 {
			return "", fmt.Errorf("usage: insert <agent> [match...] <mbox-addr>")
		}
		a := s.agents[fields[1]]
		if a == nil {
			return "", fmt.Errorf("unknown agent %q", fields[1])
		}
		addr, err := parseAddr(fields[len(fields)-1])
		if err != nil {
			return "", err
		}
		pred := Predicate{}
		if len(fields) > 3 {
			var perr error
			pred, _, perr = parseRule(append(fields[2:len(fields)-1], "chain", "x"))
			if perr != nil {
				return "", perr
			}
		}
		n := s.InsertForMatching(a, pred, addr)
		return fmt.Sprintf("triggered %d session insertions", n), nil

	default:
		return "", fmt.Errorf("unknown command %q", fields[0])
	}
}

func parseRule(fields []string) (Predicate, []string, error) {
	var pred Predicate
	i := 0
	for i < len(fields) {
		switch fields[i] {
		case "dport", "sport":
			if i+1 >= len(fields) {
				return pred, nil, fmt.Errorf("%s needs a value", fields[i])
			}
			n, err := strconv.ParseUint(fields[i+1], 10, 16)
			if err != nil {
				return pred, nil, fmt.Errorf("bad port %q", fields[i+1])
			}
			if fields[i] == "dport" {
				pred.DstPort = packet.Port(n)
			} else {
				pred.SrcPort = packet.Port(n)
			}
			i += 2
		case "dst", "src":
			if i+1 >= len(fields) {
				return pred, nil, fmt.Errorf("%s needs a value", fields[i])
			}
			ip, err := parseAddr(fields[i+1])
			if err != nil {
				return pred, nil, err
			}
			if fields[i] == "dst" {
				pred.DstIP = ip
			} else {
				pred.SrcIP = ip
			}
			i += 2
		case "chain":
			if i+1 >= len(fields) {
				return pred, nil, fmt.Errorf("chain needs at least one type")
			}
			return pred, fields[i+1:], nil
		default:
			return pred, nil, fmt.Errorf("unknown match %q", fields[i])
		}
	}
	return pred, nil, fmt.Errorf("rule has no chain")
}

// parseAddr reads a dotted-quad IPv4 address; trailing text is an error.
func parseAddr(s string) (packet.Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil || !ip.Is4() {
		return 0, fmt.Errorf("bad address %q", s)
	}
	b := ip.As4()
	return packet.MakeAddr(b[0], b[1], b[2], b[3]), nil
}
