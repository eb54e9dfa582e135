package tcp

import (
	"runtime"
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
}

func (k *streamSink) listen(s *Stack) {
	s.Listen(80, func(c *Conn) {
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

// sendOffset is how far acknowledgments have moved the live bytes from the
// start of their backing array.
func sendOffset(c *Conn) int { return cap(c.sndStore) - cap(c.sndBuf) }

// TestSendIntoStreamingConnIsAllocationFree: a sender that tops its buffer
// up as the peer acknowledges reuses one backing array — Send slides the
// live bytes down instead of growing a buffer whose front has been sliced
// off — and that array stays within twice the most ever buffered.
func TestSendIntoStreamingConnIsAllocationFree(t *testing.T) {
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
	sent, maxBuffered, measured, slides := 0, 0, 0, 0
	for tick := 0; tick < 20_000; tick++ { // 2 s of stream
		for c.BufferedOut() < 256<<10 {
			data := streamChunk(sent, chunk)
			before, store := sendOffset(c), cap(c.sndStore)
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
			if cap(c.sndStore) == store && sendOffset(c) < before {
				slides++
			}
			maxBuffered = max(maxBuffered, c.BufferedOut())
		}
		h.runFor(100 * time.Microsecond)
	}
	if measured < 100 || slides < 50 {
		t.Errorf("only %d Sends measured and %d slides seen; the stream is too idle to prove anything", measured, slides)
	}
	if cap(c.sndStore) > 2*maxBuffered {
		t.Errorf("send backing array is %d bytes for at most %d buffered", cap(c.sndStore), maxBuffered)
	}
	if sink.bad != 0 || sink.got < sent-maxBuffered {
		t.Errorf("sink verified %d of %d bytes sent, %d deliveries mismatched", sink.got, sent, sink.bad)
	}
}

// TestSendBufferSlideBetweenTransmissionAndRetransmission: a lost segment
// is retransmitted from the send buffer, so the slide that happens between
// its two transmissions must move its bytes with the rest. Every 90th data
// segment is dropped once; the test requires that at least one of them sat
// at the front of the buffer, not yet retransmitted, while Send slid the
// buffer, and that the receiver still saw the exact stream.
func TestSendBufferSlideBetweenTransmissionAndRetransmission(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond, Bandwidth: netsim.Mbps(100)}, 5)
	var sink streamSink
	sink.listen(h.server)
	c := h.client.Connect(h.hs.Addr, 80, Config{})

	dataSegs := 0
	dropped := map[uint32]bool{} // sequence numbers lost on first transmission
	h.hc.LinkTo(h.hs.Addr).SetFault(func(p *packet.Packet) netsim.FaultDecision {
		if len(p.Payload) == 0 || dropped[p.Seq] {
			return netsim.FaultDecision{}
		}
		if dataSegs++; dataSegs%90 != 0 {
			return netsim.FaultDecision{}
		}
		dropped[p.Seq] = true
		return netsim.FaultDecision{Drop: true}
	})

	const chunk, total = 16 << 10, 4 << 20
	sent, slidOverHole := 0, 0
	refill := func() {
		for sent < total && c.BufferedOut() < 128<<10 {
			before, store, retx := sendOffset(c), cap(c.sndStore), c.Stats.Retransmits
			if err := c.Send(streamChunk(sent, chunk)); err != nil {
				t.Fatal(err)
			}
			sent += chunk
			slid := cap(c.sndStore) == store && sendOffset(c) < before
			// The front of the buffer is a segment that was sent and lost,
			// and nothing has been retransmitted since before this Send.
			if slid && dropped[c.sndUna] && c.Stats.Retransmits == retx && packet.SeqLT(c.sndUna, c.sndNxt) {
				slidOverHole++
			}
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
	if slidOverHole == 0 {
		t.Errorf("no slide happened while a lost segment awaited retransmission (%d dropped); the test proves nothing", len(dropped))
	}
}
