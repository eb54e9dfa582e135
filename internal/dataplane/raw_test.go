package dataplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// rawKernelRule is a rule exercising every translation stage at once:
// tuple substitution, both seq-side and ack-side deltas, both timestamp
// deltas, and a window rescale.
func rawKernelRule(proto packet.Proto) core.Rule {
	return core.Rule{
		To: packet.FiveTuple{
			Proto: proto,
			SrcIP: packet.MakeAddr(192, 168, 7, 7), DstIP: packet.MakeAddr(192, 168, 9, 9),
			SrcPort: 7777, DstPort: 9999,
		},
		SeqAdd: 1 << 20, TSAdd: -12345,
		AckAdd: -(1 << 19), TSEcrAdd: 54321,
		WinFrom: 3, WinTo: 1,
	}
}

// rawKernelFrames enumerates the option-ablation and payload-edge frames
// the direct kernel diff runs over.
func rawKernelFrames() map[string]*packet.Packet {
	tpl := packet.FiveTuple{
		SrcIP: packet.MakeAddr(10, 9, 0, 1), DstIP: packet.MakeAddr(10, 9, 0, 2),
		SrcPort: 40001, DstPort: 80,
	}
	frames := map[string]*packet.Packet{}
	add := func(name string, p *packet.Packet) { frames[name] = p }

	plain := packet.NewTCP(tpl, packet.FlagACK, 1000, 2000, nil)
	plain.Window = 4096
	add("tcp_plain", plain)

	ts := packet.NewTCP(tpl, packet.FlagACK, 1000, 2000, []byte("abc"))
	ts.Window = 4096
	ts.Opts.TS = &packet.Timestamp{Val: 111111, Ecr: 222222}
	add("tcp_ts_odd_payload", ts)

	sack := packet.NewTCP(tpl, packet.FlagACK, 1000, 2000, []byte("x"))
	sack.Opts.SACK = []packet.SACKBlock{{Start: 10, End: 20}, {Start: 40, End: 60}, {Start: 90, End: 91}}
	add("tcp_sack3", sack)

	both := packet.NewTCP(tpl, packet.FlagACK, ^uint32(0)-5, 7, []byte("hello"))
	both.Window = 65535
	both.Opts.TS = &packet.Timestamp{Val: ^uint32(0) - 2, Ecr: 3}
	both.Opts.SACK = []packet.SACKBlock{{Start: ^uint32(0) - 100, End: 50}}
	both.Opts.HasDyscoTag = true
	both.Opts.DyscoTag = 0xdeadbeef
	add("tcp_ts_sack_wraparound", both)

	syn := packet.NewTCP(tpl, packet.FlagSYN, 0, 0, nil)
	syn.Opts.MSS = 1460
	syn.Opts.WScale = 7
	syn.Opts.SACKPermitted = true
	add("tcp_syn_no_ack_flag", syn)

	// Window scale is 3 bytes long, so the SACK and timestamp words
	// after it sit at odd offsets and fold through ChecksumUpdate32Odd.
	odd := packet.NewTCP(tpl, packet.FlagACK, 1000, 2000, []byte("odd"))
	odd.Opts.WScale = 7
	odd.Opts.SACK = []packet.SACKBlock{{Start: 10, End: 20}}
	odd.Opts.TS = &packet.Timestamp{Val: 5, Ecr: 6}
	add("tcp_wscale_odd_options", odd)

	utpl := tpl
	udp := packet.NewUDP(utpl, []byte("datagram!"))
	add("udp_odd_payload", udp)
	add("udp_empty", packet.NewUDP(utpl, nil))

	return frames
}

// TestRawKernelMatchesStructKernel is the direct per-frame equivalence:
// for every ablation frame, direction, and option-translation setting,
// the in-place raw rewrite with incremental checksums must produce bytes
// identical to Parse → core.Rule.Apply* → Serialize, which recomputes
// every checksum from scratch.
func TestRawKernelMatchesStructKernel(t *testing.T) {
	for name, p := range rawKernelFrames() {
		for _, dir := range []Dir{Egress, Ingress} {
			for _, opts := range []bool{true, false} {
				rule := rawKernelRule(p.Tuple.Proto)
				frame := p.Serialize()

				sp, err := packet.Parse(p.Serialize())
				if err != nil {
					t.Fatalf("%s: struct parse: %v", name, err)
				}
				if dir == Egress {
					rule.ApplyEgress(sp, opts)
				} else {
					rule.ApplyIngress(sp, opts)
				}
				want := sp.Serialize()

				v, err := packet.ParseView(frame)
				if err != nil {
					t.Fatalf("%s: ParseView: %v", name, err)
				}
				rr := CompileRaw(&rule, dir)
				if dir == Egress {
					rr.ApplyEgress(&v, opts)
				} else {
					rr.ApplyIngress(&v, opts)
				}

				if !bytes.Equal(frame, want) {
					t.Errorf("%s dir=%v opts=%v:\n  raw    %x\n  struct %x", name, dir, opts, frame, want)
				}
			}
		}
	}
}

// TestRawRejectsMalformed feeds hand-corrupted frames through the inline
// raw path: every one must come back Rejected and byte-identical.
func TestRawRejectsMalformed(t *testing.T) {
	eng := New(Config{Workers: 1})
	base := rawKernelFrames()["tcp_ts_sack_wraparound"]
	eng.Table().Install(base.Tuple, &Entry{Dir: Egress, Rule: rawKernelRule(packet.ProtoTCP)})

	good := base.Serialize()
	if v := eng.ProcessRawInline(append([]byte(nil), good...)); v != Rewritten {
		t.Fatalf("canonical frame verdict = %v, want Rewritten", v)
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		bad := corruptFrame(rng, good)
		orig := append([]byte(nil), bad...)
		if v := eng.ProcessRawInline(bad); v != Rejected {
			t.Fatalf("corruption %d: verdict = %v, want Rejected (frame %x)", i, v, bad)
		}
		if !bytes.Equal(bad, orig) {
			t.Fatalf("corruption %d: rejected frame was modified:\n  got  %x\n  fed  %x", i, bad, orig)
		}
	}
	// Every strict truncation of the canonical frame must reject.
	for n := 0; n < len(good); n++ {
		if v := eng.ProcessRawInline(good[:n]); v != Rejected {
			t.Fatalf("truncation to %d bytes: verdict = %v, want Rejected", n, v)
		}
	}
}

// TestRawPathZeroAlloc pins the raw pipeline — ParseView, table lookup,
// in-place RawRule rewrite with checksum folding — at zero heap
// allocations per frame on every branch: every rawKernelFrames frame in
// both directions with option translation on and off, a lookup miss,
// each shape ParseView rejects, and the same frames fed through the
// rings to a running worker.
func TestRawPathZeroAlloc(t *testing.T) {
	frames := rawKernelFrames()
	names := make([]string, 0, len(frames))
	for name := range frames {
		names = append(names, name)
	}
	sort.Strings(names)
	measure := func(name string, eng *Engine, orig []byte, want Verdict) {
		t.Helper()
		frame := append([]byte(nil), orig...)
		bad := 0
		if n := testing.AllocsPerRun(200, func() {
			copy(frame, orig) // re-arm in place; copy does not allocate
			if eng.ProcessRawInline(frame) != want {
				bad++
			}
		}); n != 0 {
			t.Errorf("%s: ProcessRawInline allocates %v/op, want 0", name, n)
		}
		if bad != 0 {
			t.Errorf("%s: %d runs did not return %v", name, bad, want)
		}
	}

	tcp, udp := frames["tcp_plain"].Tuple, frames["udp_empty"].Tuple
	for _, dir := range []Dir{Egress, Ingress} {
		for _, opts := range []bool{true, false} {
			eng := New(Config{Workers: 1, DisableOptionTranslation: !opts})
			eng.Table().Install(tcp, &Entry{Dir: dir, Rule: rawKernelRule(packet.ProtoTCP)})
			eng.Table().Install(udp, &Entry{Dir: dir, Rule: rawKernelRule(packet.ProtoUDP)})
			for _, name := range names {
				measure(fmt.Sprintf("%s dir=%v opts=%v", name, dir, opts), eng, frames[name].Serialize(), Rewritten)
			}
		}
	}

	eng := New(Config{Workers: 1})
	eng.Table().Install(tcp, &Entry{Dir: Egress, Rule: rawKernelRule(packet.ProtoTCP)})
	miss := packet.NewTCP(tcp.Reverse(), packet.FlagACK, 1, 2, nil)
	measure("lookup miss", eng, miss.Serialize(), Pass)
	measure("END option, lookup miss", eng, ipFrame(packet.ProtoTCP, tcpHeader(0, 0, 0, 0)), Pass)
	rejects := viewRejects()
	for _, r := range rejects {
		measure("reject "+r.name, eng, r.frame, Rejected)
	}

	// The worker path: FeedRaw → ring → worker.processRaw, one batch of
	// rewritten, passed and rejected frames per run, waiting until the
	// worker has popped it. Two frame sets alternate, so a run never
	// re-arms a frame the worker may still be rewriting: the worker pops
	// run k+1's frames only after it has processed run k's.
	batch := [][]byte{frames["tcp_ts_sack_wraparound"].Serialize(), frames["tcp_wscale_odd_options"].Serialize(),
		miss.Serialize(), rejects[0].frame}
	var sets [2][][]byte
	for i := range sets {
		for _, f := range batch {
			sets[i] = append(sets[i], append([]byte(nil), f...))
		}
	}
	eng.Start()
	runs := 0
	if n := testing.AllocsPerRun(200, func() {
		set := sets[runs%2]
		runs++
		for i, f := range set {
			copy(f, batch[i])
			for !eng.FeedRaw(f) {
				runtime.Gosched()
			}
		}
		for eng.workers[0].ring.Len() != 0 {
			runtime.Gosched()
		}
	}); n != 0 {
		t.Errorf("worker path allocates %v per batch of %d frames, want 0", n, len(batch))
	}
	eng.Stop()
	st := eng.Stats()
	if want := uint64(runs * len(batch)); st.Processed != want || st.Rewritten != 2*uint64(runs) || st.Rejected != uint64(runs) {
		t.Fatalf("worker stats %+v after %d runs of %d frames", st, runs, len(batch))
	}
}

// ipFrame wraps transport bytes in a minimal IPv4 header. ParseView does
// not verify checksums, so none are filled in.
func ipFrame(proto packet.Proto, transport []byte) []byte {
	n := packet.IPHeaderLen + len(transport)
	b := make([]byte, packet.IPHeaderLen, n)
	b[0] = 0x45
	b[packet.OffIPTotalLen], b[packet.OffIPTotalLen+1] = byte(n>>8), byte(n)
	b[packet.OffIPProto] = byte(proto)
	return append(b, transport...)
}

// tcpHeader is a TCP header whose data offset covers the given option
// bytes (a multiple of 4 long).
func tcpHeader(opts ...byte) []byte {
	t := make([]byte, packet.TCPFixedLen, packet.TCPFixedLen+len(opts))
	t[packet.OffTCPDataOff] = byte((packet.TCPFixedLen+len(opts))/4) << 4
	return append(t, opts...)
}

// viewRejects is one frame per ParseView reject branch.
func viewRejects() []struct {
	name  string
	frame []byte
} {
	withDataOff := func(words byte) []byte {
		b := ipFrame(packet.ProtoTCP, tcpHeader())
		b[packet.IPHeaderLen+packet.OffTCPDataOff] = words << 4
		return b
	}
	udp := func(lenField int) []byte {
		u := make([]byte, packet.UDPHeaderLen)
		u[packet.OffUDPLen], u[packet.OffUDPLen+1] = byte(lenField>>8), byte(lenField)
		return ipFrame(packet.ProtoUDP, u)
	}
	notIPv4 := ipFrame(packet.ProtoTCP, tcpHeader())
	notIPv4[0] = 0x46
	// Option bytes: 1 is NOP, 2 is MSS (4 bytes on the wire).
	return []struct {
		name  string
		frame []byte
	}{
		{"truncated IP header", ipFrame(packet.ProtoTCP, tcpHeader())[:packet.IPHeaderLen-1]},
		{"not IPv4/IHL 5", notIPv4},
		{"trailing bytes past the total length", append(ipFrame(packet.ProtoTCP, tcpHeader()), 0)},
		{"truncated TCP header", ipFrame(packet.ProtoTCP, make([]byte, packet.TCPFixedLen-1))},
		{"data offset below 20", withDataOff(4)},
		{"data offset past the frame", withDataOff(15)},
		{"option without length byte", ipFrame(packet.ProtoTCP, tcpHeader(1, 1, 1, 2))},
		{"option length below 2", ipFrame(packet.ProtoTCP, tcpHeader(2, 1, 0, 0))},
		{"option length past the region", ipFrame(packet.ProtoTCP, tcpHeader(2, 8, 0, 0))},
		{"option body size wrong", ipFrame(packet.ProtoTCP, tcpHeader(2, 3, 0, 1))},
		{"truncated UDP header", ipFrame(packet.ProtoUDP, make([]byte, packet.UDPHeaderLen-1))},
		{"UDP length mismatch", udp(packet.UDPHeaderLen + 1)},
		{"unknown protocol", ipFrame(1, make([]byte, 8))},
	}
}

// fuzzEngine builds the engine and reference the fuzz target shares: one
// egress and one ingress entry at fixed tuples the seed corpus hits.
func fuzzEngine() (*Engine, *Ref) {
	eng := New(Config{Workers: 1})
	ref := NewRef(Config{})
	for i := 0; i < 2; i++ {
		eng.Table().Install(flowTuple(i), stableEntry(i))
		ref.Install(flowTuple(i), stableEntry(i))
	}
	return eng, ref
}

// FuzzRawRewrite is the fuzz form of the equivalence oracle. For any
// input: the raw path must not panic; a Rejected frame must come back
// byte-identical and be non-canonical (Parse fails or the frame is not
// its own re-serialization); a canonical frame must get the struct
// pipeline's verdict and exact bytes.
func FuzzRawRewrite(f *testing.F) {
	for _, b := range rawFuzzSeeds() {
		f.Add(b)
	}
	eng, ref := fuzzEngine()
	f.Fuzz(func(t *testing.T, b []byte) {
		frame := append([]byte(nil), b...)
		v := eng.ProcessRawInline(frame)

		p, perr := packet.Parse(b)
		canonical := perr == nil && bytes.Equal(p.Serialize(), b)

		if v == Rejected {
			if !bytes.Equal(frame, b) {
				t.Fatalf("rejected frame was modified:\n  got %x\n  fed %x", frame, b)
			}
			if canonical {
				t.Fatalf("raw path rejected a canonical frame: %x", b)
			}
			return
		}
		if !canonical {
			return // accepted non-canonical input: no struct baseline to compare
		}
		sv := ref.Process(p)
		if v != sv {
			t.Fatalf("verdict diverged: raw %v, struct %v (frame %x)", v, sv, b)
		}
		if want := p.Serialize(); !bytes.Equal(frame, want) {
			t.Fatalf("bytes diverged:\n  raw    %x\n  struct %x\n  input  %x", frame, want, b)
		}
	})
}

// rawFuzzSeeds builds the seed frames: rewrite hits for both directions
// and protocols, a miss, and malformed edges.
func rawFuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(5))
	hitE := flowPacket(rng, 0, 3).Serialize()  // egress entry
	hitI := flowPacket(rng, 1, 2).Serialize()  // ingress entry
	miss := flowPacket(rng, 20, 0).Serialize() // no entry
	udp := packet.NewUDP(flowTuple(4), []byte("odd")).Serialize()
	return [][]byte{
		hitE, hitI, miss, udp,
		hitE[:len(hitE)/2],
		{0x45},
		{},
	}
}

// TestWriteRawFuzzCorpus regenerates the checked-in seed corpus. Run with
// WRITE_FUZZ_CORPUS=1 after a wire-format or oracle change.
func TestWriteRawFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("corpus generator; set WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	seeds := rawFuzzSeeds()
	writeFuzzCorpus(t, "FuzzRawRewrite", map[string][]byte{
		"tcp_egress_hit":  seeds[0],
		"tcp_ingress_hit": seeds[1],
		"tcp_miss":        seeds[2],
		"udp_hit":         seeds[3],
		"tcp_truncated":   seeds[4],
		"short":           seeds[5],
		"empty":           seeds[6],
	})
}

// writeFuzzCorpus emits seeds in the native `go test fuzz v1` format.
func writeFuzzCorpus(t *testing.T, fuzzName string, seeds map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
