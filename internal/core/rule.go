package core

import "repro/internal/packet"

// Rule is the pure per-packet rewrite kernel of §3.4/§4.2: the five-tuple
// substitution plus the sequence/ack deltas and option translations a
// Dysco hop applies in each direction. It is deliberately free of any
// simulation state (no Session, no engine clock, no observability), so
// the deterministic core.Agent and the concurrent internal/dataplane
// engine execute the exact same rewrite code — the property the
// differential oracle in internal/dataplane relies on. Methods mutate the
// packet in place and never allocate, on any branch
// (TestRewritePathZeroAlloc).
type Rule struct {
	// To replaces the packet's five-tuple (egress: session→subsession;
	// ingress: subsession→session).
	To packet.FiveTuple
	// Ingress translations.
	SeqAdd int64 // incoming stream position delta
	TSAdd  int64 // incoming TS.Val delta
	// Egress translations.
	AckAdd   int64 // outgoing ack (and SACK block) delta
	TSEcrAdd int64 // outgoing TS.Ecr delta
	// WinFrom/WinTo rescale the outgoing advertised window between the
	// window-scale factors negotiated on the two sides of an anchor.
	WinFrom, WinTo int8
}

// ApplyEgress rewrites an outgoing packet onto its subsession: the
// output-side delta on the acknowledgment number and SACK blocks, the
// timestamp echo shift, the window rescale (clamped to the 16-bit field),
// then the tuple substitution. Option translation is a flag because the
// concurrent engine's dataplane.Config.DisableOptionTranslation switches
// it off for the §4.2 ablation; the agent always translates.
func (r *Rule) ApplyEgress(p *packet.Packet, translateOptions bool) {
	if r.AckAdd != 0 && p.Flags.Has(packet.FlagACK) {
		p.Ack = packet.SeqAdd(p.Ack, r.AckAdd)
	}
	if translateOptions {
		if r.AckAdd != 0 {
			for i := range p.Opts.SACK {
				p.Opts.SACK[i].Start = packet.SeqAdd(p.Opts.SACK[i].Start, r.AckAdd)
				p.Opts.SACK[i].End = packet.SeqAdd(p.Opts.SACK[i].End, r.AckAdd)
			}
		}
		if r.TSEcrAdd != 0 && p.Opts.TS != nil {
			p.Opts.TS.Ecr = uint32(int64(p.Opts.TS.Ecr) + r.TSEcrAdd)
		}
		if r.WinFrom != r.WinTo {
			actual := uint32(p.Window) << r.WinFrom
			scaled := actual >> r.WinTo
			if scaled > 65535 {
				scaled = 65535
			}
			p.Window = uint16(scaled)
		}
	}
	p.RewriteTuple(r.To)
}

// ApplyIngress rewrites an incoming subsession packet back to the session
// header: the input-side delta on the sequence number, the timestamp
// value shift, then the tuple substitution.
func (r *Rule) ApplyIngress(p *packet.Packet, translateOptions bool) {
	if r.SeqAdd != 0 {
		p.Seq = packet.SeqAdd(p.Seq, r.SeqAdd)
	}
	if translateOptions && r.TSAdd != 0 && p.Opts.TS != nil {
		p.Opts.TS.Val = uint32(int64(p.Opts.TS.Val) + r.TSAdd)
	}
	p.RewriteTuple(r.To)
}
