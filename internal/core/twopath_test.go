package core

import (
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// emitted is one packet steerEgress put on the wire, as its receiver saw it.
type emitted struct {
	path     string // "old" or "new"
	seq, ack uint32
	n        int
	fin      bool
}

// steerOne puts a left anchor into the §3.5 two-path phase with the given
// oldSent/oldRcvd/oldRcvdAcked, feeds p (in the session's header) through
// steerEgress, and returns what reached the old-path and new-path
// neighbors, old path first, plus the anchor's oldRcvdAcked afterwards.
// Both rewrite entries carry no deltas, so seq/ack arrive unchanged.
func steerOne(t *testing.T, oldSent, oldRcvd, oldRcvdAcked uint32, p *packet.Packet) ([]emitted, uint32) {
	t.Helper()
	eng := sim.NewEngine(1)
	n := netsim.New(eng)
	ha := n.AddHost("anchor", packet.MakeAddr(10, 0, 0, 1))
	ho := n.AddHost("old", packet.MakeAddr(10, 0, 0, 2))
	hn := n.AddHost("new", packet.MakeAddr(10, 0, 0, 3))
	link := netsim.LinkConfig{Delay: 10 * time.Microsecond}
	n.Connect(ha, ho, link)
	n.Connect(ha, hn, link)
	n.ComputeRoutes()
	a := NewAgent(ha, Config{})
	var got []emitted
	for _, h := range []*netsim.Host{ho, hn} {
		h.AddIngressHook(func(q *packet.Packet, _ netsim.Direction) netsim.Verdict {
			if q.IsTCP() {
				got = append(got, emitted{h.Name, q.Seq, q.Ack, q.DataLen(), q.Flags.Has(packet.FlagFIN)})
			}
			return netsim.Consume
		})
	}

	id := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: ha.Addr, DstIP: packet.MakeAddr(10, 0, 0, 9), SrcPort: 1000, DstPort: 80}
	oldSub := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: ha.Addr, DstIP: ho.Addr, SrcPort: 40000, DstPort: 40001}
	newSub := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: ha.Addr, DstIP: hn.Addr, SrcPort: 40002, DstPort: 40003}
	sess := &Session{IDLeft: id, IDRight: id, RightHost: ho.Addr, SubRight: oldSub}
	rc := &Reconfig{
		ID: 1, State: RcTwoPath, IsLeft: true, Sess: sess, PeerAddr: hn.Addr,
		newSub: newSub, newPeerHost: hn.Addr,
		newEgressEntry: &rewriteEntry{Rule: Rule{To: newSub}, sess: sess, dirRight: true, anchorTrack: true, newPath: true},
		oldSent:        oldSent, oldRcvd: oldRcvd, oldRcvdAcked: oldRcvdAcked,
		switched: true,
		// This anchor's FIN is out: steerEgress's completion check then
		// sends no control message.
		sentOldFIN: true,
	}
	sess.Reconfig = rc
	oldE := a.install(a.egress, id, &rewriteEntry{Rule: Rule{To: oldSub}, sess: sess, dirRight: true, anchorTrack: true})

	p.Tuple = id
	a.steerEgress(p, oldE)
	eng.Run(time.Millisecond)
	sort.SliceStable(got, func(i, j int) bool { return got[i].path > got[j].path })
	return got, rc.oldRcvdAcked
}

// TestSteerEgressRules drives the §3.5 egress rules row by row: an anchor
// with oldSent=1000, oldRcvd=5000 sends one packet, and each emitted
// packet's path, seq, ack, length and FIN is checked.
func TestSteerEgressRules(t *testing.T) {
	const oldSent, oldRcvd = 1000, 5000
	ack := packet.FlagACK
	finAck := packet.FlagACK | packet.FlagFIN
	for _, tc := range []struct {
		name      string
		acked     uint32 // oldRcvdAcked before
		flags     packet.TCPFlags
		seq, ack  uint32
		n         int
		want      []emitted
		wantAcked uint32 // oldRcvdAcked after
	}{
		{"data below oldSent", 4000, ack, 500, 4500, 300,
			[]emitted{{"old", 500, 4500, 300, false}}, 4500},
		{"data straddling oldSent splits", 4000, ack, 900, 4000, 300,
			[]emitted{{"old", 900, 4000, 100, false}, {"new", 1000, 4000, 200, false}}, 4000},
		{"data above oldSent", 4000, ack, 1200, 4000, 300,
			[]emitted{{"new", 1200, 4000, 300, false}}, 4000},
		{"FIN below oldSent", 4000, finAck, 700, 4000, 299,
			[]emitted{{"old", 700, 4000, 299, true}}, 4000},
		{"FIN at oldSent", 4000, finAck, 1000, 4000, 0,
			[]emitted{{"new", 1000, 4000, 0, true}}, 4000},
		{"straddling data with FIN", 4000, finAck, 900, 4000, 300,
			[]emitted{{"old", 900, 4000, 100, false}, {"new", 1000, 4000, 200, true}}, 4000},
		{"pure ack within oldRcvd", 4000, ack, 1500, 4800, 0,
			[]emitted{{"old", 1500, 4800, 0, false}}, 4800},
		{"pure ack beyond oldRcvd, old ack advances", 4000, ack, 1500, 6000, 0,
			[]emitted{{"old", 1500, oldRcvd, 0, false}, {"new", 1500, 6000, 0, false}}, oldRcvd},
		{"pure ack beyond oldRcvd, old ack complete", oldRcvd, ack, 1500, 6000, 0,
			[]emitted{{"new", 1500, 6000, 0, false}}, oldRcvd},
		{"new-path data advancing the old ack", 4000, ack, 1200, 6000, 300,
			[]emitted{{"old", 1200, oldRcvd, 0, false}, {"new", 1200, 6000, 300, false}}, oldRcvd},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := packet.NewTCP(packet.FiveTuple{}, tc.flags, tc.seq, tc.ack, make([]byte, tc.n))
			p.Window = 1000
			got, acked := steerOne(t, oldSent, oldRcvd, tc.acked, p)
			if len(got) != len(tc.want) {
				t.Fatalf("emitted %+v, want %+v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("packet %d: got %+v, want %+v", i, got[i], tc.want[i])
				}
			}
			if acked != tc.wantAcked {
				t.Errorf("oldRcvdAcked = %d, want %d", acked, tc.wantAcked)
			}
		})
	}
}
