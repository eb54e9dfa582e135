package tcp

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
)

// streamByte is the stream's content at offset i: a pattern with no short
// period, so bytes that end up at the wrong offset show.
func streamByte(i int) byte { return byte(i*31 + i>>8*7 + i>>16) }

func streamChunk(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = streamByte(off + i)
	}
	return b
}

// streamSink accepts on port 80 and checks every delivered byte against the
// stream at the connection's own offset.
type streamSink struct {
	got, bad int
	conn     *Conn // the last accepted
}

func (k *streamSink) listen(s *Stack) {
	s.Listen(80, func(c *Conn) {
		k.conn = c
		c.OnData = func(b []byte) {
			for i, v := range b {
				if v != streamByte(k.got+i) {
					k.bad++
				}
			}
			k.got += len(b)
		}
	})
}

// mallocs is the process's allocation count so far, for a call that must not
// run twice and so cannot go through testing.AllocsPerRun. Like it, callers
// pin GOMAXPROCS to 1 to keep other goroutines' allocations out.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// streamOffset is the stream offset of sequence number seq on c.
func streamOffset(c *Conn, seq uint32) int {
	return int(packet.SeqDiff(packet.SeqAdd(c.ISS(), 1), seq))
}

// aliases reports whether b is exactly the capped sub-slice of chunk that
// starts at index i.
func aliases(b, chunk []byte, i int) bool {
	return len(b) > 0 && i+len(b) <= len(chunk) && &b[0] == &chunk[i] && cap(b) == len(b)
}

// TestSendQueuesCallerChunksWithoutCopying: a sender that tops its buffer up
// as the peer acknowledges queues each 64 KB chunk without allocating, and
// every segment that lies inside one chunk carries that chunk's own bytes.
func TestSendQueuesCallerChunksWithoutCopying(t *testing.T) {
	// 100 Mb/s and a 64 KB queue keep the flight well under the 256 KB the
	// sender buffers, so the window is nearly always full when Send is called.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond, Bandwidth: netsim.Mbps(100), QueueBytes: 64 << 10}, 3)
	var sink streamSink
	sink.listen(h.server)
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	h.runFor(10 * time.Millisecond)
	if c.State() != StateEstablished {
		t.Fatalf("state %v, want established", c.State())
	}

	const chunk = 64 << 10
	var chunks [][]byte // by stream offset / chunk; nil once acknowledged
	aliased, copied, straddled := 0, 0, 0
	h.hc.LinkTo(h.hs.Addr).SetFault(func(p *packet.Packet) netsim.FaultDecision {
		if len(p.Payload) == 0 {
			return netsim.FaultDecision{}
		}
		off := streamOffset(c, p.Seq)
		k, i := off/chunk, off%chunk
		switch {
		case i+len(p.Payload) > chunk:
			straddled++
		case aliases(p.Payload, chunks[k], i):
			aliased++
		default:
			copied++
		}
		return netsim.FaultDecision{}
	})

	sent, measured := 0, 0
	for tick := 0; tick < 10_000; tick++ { // 1 s of stream
		for c.BufferedOut() < 256<<10 {
			data := streamChunk(sent, chunk)
			chunks = append(chunks, data)
			// With less than a segment of window left and data in flight
			// Send transmits nothing (a full window, or Nagle).
			queuesOnly := c.sendWindow() < c.mss && c.flight() > 0
			m0 := mallocs()
			if err := c.Send(data); err != nil {
				t.Fatal(err)
			}
			allocs := mallocs() - m0
			sent += chunk
			if tick > 1000 && queuesOnly {
				measured++
				if allocs != 0 {
					t.Fatalf("tick %d: Send of %d bytes with %d buffered = %d allocs, want 0", tick, chunk, c.BufferedOut(), allocs)
				}
			}
		}
		h.runFor(100 * time.Microsecond)
		for k := 0; k < streamOffset(c, c.SndUna())/chunk; k++ {
			chunks[k] = nil
		}
	}
	if measured < 50 {
		t.Errorf("only %d Sends measured; the stream is too idle to prove anything", measured)
	}
	if copied != 0 || aliased < 1000 || straddled == 0 {
		t.Errorf("segments inside one chunk: %d share its bytes, %d carry a copy; %d straddle two chunks", aliased, copied, straddled)
	}
	if sink.bad != 0 || sink.got < sent-256<<10-chunk {
		t.Errorf("sink verified %d of %d bytes sent, %d deliveries mismatched", sink.got, sent, sink.bad)
	}
}

// TestRetransmissionStraddlesPartlyAckedSlices: chunks of 1 000 and 7 001
// bytes put a slice boundary inside most segments, and every 90th data
// segment is dropped once. The test requires at least one retransmission
// that straddles two queued slices while the first of them is partly
// acknowledged — the read that starts past the queue's head offset and
// joins two slices — and a byte-exact stream at the receiver.
func TestRetransmissionStraddlesPartlyAckedSlices(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond, Bandwidth: netsim.Mbps(100)}, 5)
	var sink streamSink
	sink.listen(h.server)
	c := h.client.Connect(h.hs.Addr, 80, Config{})

	var starts []int // stream offset of every chunk, in order
	dataSegs, hi, straddles := 0, 0, 0
	dropped := map[uint32]bool{} // sequence numbers lost on first transmission
	h.hc.LinkTo(h.hs.Addr).SetFault(func(p *packet.Packet) netsim.FaultDecision {
		if len(p.Payload) == 0 {
			return netsim.FaultDecision{}
		}
		off, end := streamOffset(c, p.Seq), streamOffset(c, p.Seq)+len(p.Payload)
		if off < hi {
			k := sort.SearchInts(starts, off+1) - 1 // chunk holding off
			una := streamOffset(c, c.SndUna())
			if k+1 < len(starts) && end > starts[k+1] && starts[k] < una {
				straddles++
			}
			return netsim.FaultDecision{}
		}
		hi = end
		if dataSegs++; dataSegs%90 != 0 {
			return netsim.FaultDecision{}
		}
		dropped[p.Seq] = true
		return netsim.FaultDecision{Drop: true}
	})

	const total = 4 << 20
	sizes := [2]int{1000, 7001}
	sent := 0
	refill := func() {
		for sent < total && c.BufferedOut() < 128<<10 {
			n := min(sizes[len(starts)%2], total-sent)
			starts = append(starts, sent)
			if err := c.Send(streamChunk(sent, n)); err != nil {
				t.Fatal(err)
			}
			sent += n
		}
	}
	c.OnEstablished = refill
	c.OnSendBufferLow = refill
	h.eng.Run(30 * time.Second)

	if sink.got != total || sink.bad != 0 {
		t.Fatalf("sink verified %d of %d bytes, %d deliveries mismatched (retx=%d)", sink.got, total, sink.bad, c.Stats.Retransmits)
	}
	if c.Stats.Retransmits < uint64(len(dropped)) || len(dropped) == 0 {
		t.Errorf("%d segments dropped, %d retransmitted", len(dropped), c.Stats.Retransmits)
	}
	if straddles == 0 {
		t.Errorf("no retransmission straddled two slices past a partly acknowledged head (%d dropped); the test proves nothing", len(dropped))
	}
}

// TestPersistProbeCarriesOneQueuedByte: against a zero window the sender
// probes with the next unsent byte, a one-byte capped sub-slice of the
// caller's chunk, and the stream resumes intact once the window reopens.
func TestPersistProbeCarriesOneQueuedByte(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	var sink streamSink
	sink.listen(h.server)
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	h.eng.Run(time.Second)
	sc := sink.conn
	var first *packet.Packet
	h.hc.LinkTo(h.hs.Addr).SetFault(func(p *packet.Packet) netsim.FaultDecision {
		if first == nil && len(p.Payload) > 0 {
			first = p
		}
		return netsim.FaultDecision{}
	})
	zw := packet.NewTCP(c.Tuple().Reverse(), packet.FlagACK, sc.SndNxt(), c.SndNxt(), nil)
	zw.Window = 0
	zw.Opts.TS = &packet.Timestamp{Val: sc.TSNow()}
	h.hc.InjectLocal(zw)
	h.runFor(10 * time.Millisecond)
	data := streamChunk(0, 5000)
	if err := c.Send(data); err != nil {
		t.Fatal(err)
	}
	h.runFor(10 * time.Second)

	if first == nil || !aliases(first.Payload, data, 0) || len(first.Payload) != 1 {
		t.Fatalf("first data segment %v: want a 1-byte probe sharing the chunk's first byte", first)
	}
	if sink.got != len(data) || sink.bad != 0 {
		t.Fatalf("sink verified %d of %d bytes, %d mismatched", sink.got, len(data), sink.bad)
	}
}

// TestOnDrained: a drain callback runs at once on an empty send queue;
// otherwise every pending one runs, in registration order, at the ACK that
// empties the queue and not before, even after one of them detaches the
// connection. A destroyed connection runs none.
func TestOnDrained(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond, Bandwidth: netsim.Mbps(100)}, 1)
	var sink streamSink
	sink.listen(h.server)
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	h.runFor(10 * time.Millisecond)

	var got []string
	note := func(s string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", s, c.BufferedOut())) }
	}
	c.OnDrained(note("now"))
	if len(got) != 1 {
		t.Fatalf("on an empty queue: ran %v, want now", got)
	}

	const n = 200 << 10
	if err := c.Send(streamChunk(0, n)); err != nil {
		t.Fatal(err)
	}
	c.OnDrained(note("a"))
	c.OnDrained(note("b"))
	h.runFor(5 * time.Millisecond)
	if len(got) != 1 || c.BufferedOut() == 0 {
		t.Fatalf("ran %v with %d bytes still queued, want nothing yet", got, c.BufferedOut())
	}
	h.runFor(time.Second)
	if want := []string{"now@0", "a@0", "b@0"}; fmt.Sprint(got) != fmt.Sprint(want) || sink.got != n {
		t.Fatalf("ran %v after %d of %d bytes, want %v", got, sink.got, n, want)
	}

	if err := c.Send(streamChunk(n, n)); err != nil {
		t.Fatal(err)
	}
	c.OnDrained(c.Detach)
	c.OnDrained(note("after-detach"))
	h.runFor(time.Second)
	if c.State() != StateClosed || len(got) != 4 {
		t.Fatalf("detaching callback: state %v, ran %v", c.State(), got)
	}

	d := h.client.Connect(h.hs.Addr, 80, Config{})
	h.runFor(10 * time.Millisecond)
	if err := d.Send(streamChunk(0, n)); err != nil {
		t.Fatal(err)
	}
	ran := false
	d.OnDrained(func() { ran = true })
	d.Detach()
	h.runFor(time.Second)
	if ran {
		t.Fatal("a destroyed connection ran its drain callback")
	}
}

// FuzzSendQueue runs random programs of push, acknowledge and read against
// a flat byte slice. Every read must return the reference bytes, share the
// pushed slice when the range lies inside one, and be capped. A program is
// five-byte instructions: an opcode, then two big-endian operands x and y.
func FuzzSendQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		const mss = 1460
		var q sendQueue
		var ref []byte        // the live bytes
		var bufs [][]byte     // every pushed non-empty slice, oldest first
		var starts []int      // stream offset of each of bufs
		acked, stream := 0, 0 // stream offsets of ref[0] and of its end
		var curs [2]qcursor
		for ; len(prog) >= 5; prog = prog[5:] {
			op, x, y := int(prog[0]), int(prog[1])<<8|int(prog[2]), int(prog[3])<<8|int(prog[4])
			switch op % 3 {
			case 0: // push 0..3×MSS bytes
				b := make([]byte, x%(3*mss+1))
				for i := range b {
					b[i] = byte(stream + i)
				}
				q.push(b)
				if len(b) > 0 {
					bufs, starts = append(bufs, b), append(starts, stream)
				}
				ref = append(ref, b...)
				stream += len(b)
			case 1: // acknowledge 0..all bytes
				n := x % (len(ref) + 1)
				q.drop(n)
				ref, acked = ref[n:], acked+n
			case 2: // read a range through one of two cursors
				if len(ref) == 0 {
					continue
				}
				off := x % len(ref)
				n := 1 + y%(len(ref)-off)
				got := q.read(&curs[op/3%2], off, n)
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("read(%d, %d) = wrong bytes", off, n)
				}
				if cap(got) != len(got) {
					t.Fatalf("read(%d, %d): cap %d, len %d", off, n, cap(got), len(got))
				}
				at := acked + off
				k := sort.SearchInts(starts, at+1) - 1
				if at+n <= starts[k]+len(bufs[k]) && !aliases(got, bufs[k], at-starts[k]) {
					t.Fatalf("read(%d, %d) inside one pushed slice is a copy", off, n)
				}
			}
			if q.n != len(ref) {
				t.Fatalf("queue holds %d bytes, reference %d", q.n, len(ref))
			}
		}
	})
}
