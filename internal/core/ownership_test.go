package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// checkOwnership asserts the table invariant install/uninstall maintain at
// each agent — every installed entry is listed, at its idx, by a session
// that is in the session table, and every listed entry is installed — and
// the live list's (checkList), and then that removing every session leaves
// both tables and the list empty. It consumes the agents' sessions, so it
// goes last in a test.
func checkOwnership(t *testing.T, agents ...*Agent) {
	t.Helper()
	for _, a := range agents {
		checkList(t, a)
		listed := 0
		a.EachSession(func(s *Session) {
			for i, e := range s.entries {
				listed++
				if e.sess != s || e.idx != i || e.tbl == nil || e.tbl[e.key] != e {
					t.Errorf("%s: session %v lists entry %d (%v) that is not installed as its own", a.Host.Name, s.IDLeft, i, e.key)
				}
			}
		})
		for name, tbl := range map[string]map[packet.FiveTuple]*rewriteEntry{"ingress": a.ingress, "egress": a.egress} {
			for k, e := range tbl {
				if e.key != k || e.sess == nil || a.sessions[e.sess.IDLeft] != e.sess && a.sessions[e.sess.IDRight] != e.sess {
					t.Errorf("%s: %s entry %v belongs to no session in the session table", a.Host.Name, name, k)
				}
			}
		}
		if installed := len(a.ingress) + len(a.egress); listed != installed {
			t.Errorf("%s: sessions list %d entries, tables hold %d", a.Host.Name, listed, installed)
		}
		a.EachSession(a.removeSession)
		if n := len(a.ingress) + len(a.egress); n != 0 || a.Sessions() != 0 || len(a.sessions) != 0 {
			t.Errorf("%s: %d entries, %d sessions and %d session keys outlive removeSession", a.Host.Name, n, a.Sessions(), len(a.sessions))
		}
	}
}

// checkOwnership covers every agent of the chain.
func (e *chainEnv) checkOwnership(t *testing.T) {
	t.Helper()
	checkOwnership(t, append([]*Agent{e.aClient, e.aServer}, e.aMbox...)...)
}

// TestSubsessionPortWrapSkipsLiveTuples: the subsession port counter wraps
// (after 12 768 subsessions); a tuple still owned by a live session must
// not be handed out again — it would overwrite that session's rewrite
// entries and cross the two byte streams.
func TestSubsessionPortWrapSkipsLiveTuples(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Gbps(1)}, 31)
	got := map[packet.FiveTuple]*bytes.Buffer{}
	env.sServer.Listen(80, func(c *tcp.Conn) {
		buf := &bytes.Buffer{}
		got[c.Tuple().Reverse()] = buf
		c.OnData = func(b []byte) {
			buf.Write(b)
			c.Send(b[:1]) // one byte back per segment exercises the reverse entries
		}
	})
	open := func(fill byte) (*tcp.Conn, *int) {
		c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
		echoed := new(int)
		c.OnData = func(b []byte) { *echoed += len(b) }
		c.OnEstablished = func() { c.Send(bytes.Repeat([]byte{fill}, 64<<10)) }
		return c, echoed
	}
	c1, echo1 := open('a')
	env.runFor(50 * time.Millisecond)
	sess1 := env.aClient.Session(c1.Tuple())
	if sess1 == nil || got[c1.Tuple()] == nil || got[c1.Tuple()].Len() != 64<<10 {
		t.Fatal("first session did not establish and deliver")
	}

	// Rewind the counter to the first session's ports, as a wrap would.
	env.aClient.nextPort = sess1.SubRight.SrcPort
	c2, echo2 := open('b')
	env.runFor(50 * time.Millisecond)
	sess2 := env.aClient.Session(c2.Tuple())
	if sess2 == nil {
		t.Fatal("second session has no record at the client")
	}
	if sess2.SubRight == sess1.SubRight {
		t.Fatalf("second session was given the live subsession tuple %v", sess1.SubRight)
	}

	// Both keep delivering, each its own bytes, in both directions.
	c1.Send(bytes.Repeat([]byte{'a'}, 64<<10))
	c2.Send(bytes.Repeat([]byte{'b'}, 64<<10))
	env.runFor(time.Second)
	for _, tc := range []struct {
		c      *tcp.Conn
		fill   byte
		echoed int
	}{{c1, 'a', *echo1}, {c2, 'b', *echo2}} {
		buf := got[tc.c.Tuple()]
		if buf == nil || !bytes.Equal(buf.Bytes(), bytes.Repeat([]byte{tc.fill}, 128<<10)) {
			t.Errorf("session %v: server did not receive exactly its own 128 KB of %q", tc.c.Tuple(), tc.fill)
		}
		if tc.echoed == 0 || tc.c.State() != tcp.StateEstablished {
			t.Errorf("session %v: %d bytes echoed back, state %v", tc.c.Tuple(), tc.echoed, tc.c.State())
		}
	}
	env.checkOwnership(t)
}

// exhaustPorts takes every subsession tuple a can allocate toward next,
// with ingress entries owned by a session outside the session table.
func exhaustPorts(a *Agent, next packet.Addr) {
	hog := &Session{}
	for p := int(subPortBase); p < 1<<16; p += 2 {
		sub := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: a.Host.Addr, DstIP: next, SrcPort: packet.Port(p), DstPort: packet.Port(p + 1)}
		a.install(a.ingress, sub.Reverse(), &rewriteEntry{sess: hog})
	}
}

// TestSubsessionPortsExhausted: when every candidate toward one next hop
// is taken, the session setup through it fails — its SYN is dropped and
// no half-built session is left behind — while the agent keeps running
// and other next hops still allocate. The ports run out at the client's
// policy lookup or at the chain middlebox's tagged-SYN continuation.
func TestSubsessionPortsExhausted(t *testing.T) {
	for _, tc := range []struct {
		name string
		// at is the agent whose ports run out, the next hop they run out
		// toward, and a different next hop.
		at func(e *chainEnv) (a *Agent, next, other packet.Addr)
	}{
		{"client", func(e *chainEnv) (*Agent, packet.Addr, packet.Addr) {
			return e.aClient, e.mboxes[0].Addr, e.server.Addr
		}},
		{"middlebox", func(e *chainEnv) (*Agent, packet.Addr, packet.Addr) {
			return e.aMbox[0], e.server.Addr, e.client.Addr
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond}, 32)
			a, next, other := tc.at(env)
			exhaustPorts(a, next)
			if _, ok := a.newSubTuple(next); ok {
				t.Fatal("allocation with every tuple taken succeeded")
			}

			accepted := 0
			env.sServer.Listen(80, func(*tcp.Conn) { accepted++ })
			c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
			env.runFor(100 * time.Millisecond)
			if c.State() == tcp.StateEstablished || accepted != 0 {
				t.Errorf("setup through an exhausted next hop succeeded: state %v, %d accepted", c.State(), accepted)
			}
			if n := a.Sessions(); n != 0 {
				t.Errorf("failed setups left %d sessions at %s", n, a.Host.Name)
			}
			if sub, ok := a.newSubTuple(other); !ok || sub.DstIP != other {
				t.Errorf("allocation toward a different next hop: %v, %v", sub, ok)
			}
		})
	}
}

// TestNewPathPortsExhaustedKeepsOldPath: a reconfiguration whose new-path
// subsession cannot be allocated fails cleanly, and the session keeps
// delivering its bytes over the old path through the first middlebox.
// The ports run out at the left anchor (deleting the middlebox) or at the
// new path's middlebox (replacing it), whose dropped new-path SYN the
// left anchor retransmits until it gives up.
func TestNewPathPortsExhaustedKeepsOldPath(t *testing.T) {
	for _, tc := range []struct {
		name string
		// at is the agent whose ports toward the server run out, and the
		// new path's middleboxes.
		at func(e *chainEnv) (*Agent, []packet.Addr)
	}{
		{"left anchor", func(e *chainEnv) (*Agent, []packet.Addr) { return e.aClient, nil }},
		{"new-path middlebox", func(e *chainEnv) (*Agent, []packet.Addr) {
			return e.aMbox[1], []packet.Addr{e.mboxes[1].Addr}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newChainEnv(t, 2, netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Gbps(1)}, 33)
			// Sessions chain through the first middlebox only; the
			// second is the candidate for the new path.
			first := []packet.Addr{env.mboxes[0].Addr}
			env.aClient.Policy = func(*packet.Packet) []packet.Addr { return first }
			var got bytes.Buffer
			env.sServer.Listen(80, func(c *tcp.Conn) {
				c.OnData = func(b []byte) { got.Write(b) }
			})
			part := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 64<<10) }
			c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
			c.OnEstablished = func() { c.Send(part('a')) }
			env.runFor(50 * time.Millisecond)

			a, newList := tc.at(env)
			exhaustPorts(a, env.server.Addr)
			sessions := env.aClient.Sessions()
			finished, ok := false, true
			env.aClient.OnReconfigDone = func(_ packet.FiveTuple, done bool, _ sim.Time) { finished, ok = true, done }
			err := env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
				RightAnchor:    env.server.Addr,
				NewMiddleboxes: newList,
			})
			if err != nil {
				t.Fatalf("StartReconfig: %v", err)
			}
			env.runFor(2 * time.Second)
			if !finished || ok {
				t.Fatalf("reconfiguration finished=%v ok=%v, want a failed attempt", finished, ok)
			}
			if n := env.aClient.Sessions(); n != sessions {
				t.Errorf("client sessions %d → %d", sessions, n)
			}
			if n := env.aMbox[1].Sessions(); n != 0 {
				t.Errorf("the new path's middlebox holds %d sessions", n)
			}

			before := env.apps[0].packets
			c.Send(part('b'))
			env.runFor(time.Second)
			if want := append(part('a'), part('b')...); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("server received %d bytes, want exactly the %d sent", got.Len(), len(want))
			}
			if env.apps[0].packets == before {
				t.Error("the first middlebox saw none of the data sent after the failed attempt")
			}
		})
	}
}
