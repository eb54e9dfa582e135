// Package app provides the traffic applications driving the experiments:
// bulk transfer sources/sinks (the iperf-like flows of Figures 9, 12, 14,
// 15) and a minimal HTTP-like request/response server with a wrk-like
// closed-loop load generator (Figure 10).
package app

import (
	"encoding/binary"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// Sink counts application bytes received per interval — the goodput
// measurement of the paper's figures ("measured at the receivers").
type Sink struct {
	Eng    *sim.Engine
	Series *stats.TimeSeries
	Total  uint64
}

// NewSink attaches a goodput time series with the given bin width.
func NewSink(eng *sim.Engine, interval sim.Time) *Sink {
	return &Sink{Eng: eng, Series: stats.NewTimeSeries(interval)}
}

// Serve registers the sink on a listening stack port.
func (s *Sink) Serve(stack *tcp.Stack, port packet.Port) {
	stack.Listen(port, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { s.consume(len(b)) }
		c.OnPeerFIN = func() { c.Close() }
	})
}

// Attach counts one connection's received bytes into the sink.
func (s *Sink) Attach(c *tcp.Conn) {
	c.OnData = func(b []byte) { s.consume(len(b)) }
}

func (s *Sink) consume(n int) {
	s.Total += uint64(n)
	if s.Series != nil {
		s.Series.Add(s.Eng.Now(), float64(n))
	}
}

// zeros is what every Source sends. Send keeps the slices it is given until
// they are acknowledged and never writes them, so all sources share this one
// read-only block instead of allocating each chunk.
var zeros = make([]byte, 64<<10)

// Source sends a continuous byte stream on a connection, keeping at most
// window bytes buffered in the stack (so memory stays bounded while the
// congestion window stays full).
type Source struct {
	Conn  *tcp.Conn
	Chunk int // bytes written per refill (default 64 KB)
	// HighWater bounds the stack send buffer (default 256 KB). Raise it
	// when the congestion window, not the application, should be the
	// binding constraint (the Figure 14 cwnd plots).
	HighWater int
	Limit     uint64
	Sent      uint64

	stopped bool
}

// NewSource starts a bulk sender on an (established or connecting)
// connection. limit of 0 streams forever.
func NewSource(c *tcp.Conn, limit uint64) *Source {
	s := &Source{Conn: c, Chunk: 64 << 10, HighWater: 256 << 10, Limit: limit}
	prev := c.OnEstablished
	c.OnEstablished = func() {
		if prev != nil {
			prev()
		}
		s.refill()
	}
	if c.State() == tcp.StateEstablished {
		s.refill()
	}
	// Refill as the stack drains: hook the data-path indirectly by
	// polling on acknowledgment progress via OnData of the reverse
	// direction is not possible, so Source refills on a timer-free
	// trigger: every refill writes a chunk and the stack invokes
	// OnSendBufferLow when the buffer drains.
	c.OnSendBufferLow = func() { s.refill() }
	return s
}

// Stop ceases refilling (the connection stays open).
func (s *Source) Stop() { s.stopped = true }

func (s *Source) refill() {
	if s.stopped {
		return
	}
	for s.Conn.BufferedOut() < s.HighWater {
		n := s.Chunk
		if s.Limit > 0 {
			remaining := s.Limit - s.Sent
			if remaining == 0 {
				s.Conn.Close()
				s.stopped = true
				return
			}
			if uint64(n) > remaining {
				n = int(remaining)
			}
		}
		var chunk []byte
		if n <= len(zeros) {
			chunk = zeros[:n:n]
		} else {
			chunk = make([]byte, n)
		}
		if err := s.Conn.Send(chunk); err != nil {
			s.stopped = true
			return
		}
		s.Sent += uint64(n)
	}
}

// ---------- HTTP-like request/response (Figure 10) ----------

// reqHeader is "R" + 4-byte response size; respHeader is 4-byte body size.
const reqSize = 5

// HTTPServer answers fixed-framing requests: each request is 5 bytes
// ('R' + uint32 response size), each response is a 4-byte length followed
// by that many bytes. It stands in for NGINX serving a static object.
type HTTPServer struct {
	Requests uint64
	// RequestCost is CPU charged per served request (parsing, file cache,
	// response construction — the work a real web server does). Zero
	// means free.
	RequestCost sim.Time
}

// Serve registers the server on a stack port.
func (h *HTTPServer) Serve(stack *tcp.Stack, port packet.Port) {
	host := stack.Host
	stack.Listen(port, func(c *tcp.Conn) {
		var buf []byte
		c.OnData = func(b []byte) {
			buf = append(buf, b...)
			for len(buf) >= reqSize {
				if buf[0] != 'R' {
					c.Abort()
					return
				}
				size := binary.BigEndian.Uint32(buf[1:5])
				buf = buf[reqSize:]
				h.Requests++
				if h.RequestCost > 0 {
					host.CPU.Acquire(h.RequestCost)
				}
				resp := make([]byte, 4+size)
				binary.BigEndian.PutUint32(resp, size)
				if err := c.Send(resp); err != nil {
					return // connection closing: remaining responses are moot
				}
			}
		}
		c.OnPeerFIN = func() { c.Close() }
	})
}

// LoadGen is a wrk-like closed-loop generator: n persistent connections,
// each sending the next request as soon as the previous response is fully
// received, counting completed requests.
type LoadGen struct {
	Completed uint64
	Errors    uint64
	RespSize  uint32

	conns []*tcp.Conn
}

// NewLoadGen opens n persistent connections from the stack to addr:port
// and starts the request loop on each.
func NewLoadGen(stack *tcp.Stack, addr packet.Addr, port packet.Port, n int, respSize uint32) *LoadGen {
	g := &LoadGen{RespSize: respSize}
	for i := 0; i < n; i++ {
		c := stack.Connect(addr, port, tcp.Config{})
		g.conns = append(g.conns, c)
		g.drive(c)
	}
	return g
}

func (g *LoadGen) drive(c *tcp.Conn) {
	var pending []byte
	need := -1 // response bytes still expected; -1 = waiting for header
	sendReq := func() {
		req := make([]byte, reqSize)
		req[0] = 'R'
		binary.BigEndian.PutUint32(req[1:], g.RespSize)
		if err := c.Send(req); err != nil {
			g.Errors++
		}
	}
	c.OnEstablished = sendReq
	c.OnReset = func() { g.Errors++ }
	c.OnData = func(b []byte) {
		pending = append(pending, b...)
		for {
			if need < 0 {
				if len(pending) < 4 {
					return
				}
				need = int(binary.BigEndian.Uint32(pending))
				pending = pending[4:]
			}
			if len(pending) < need {
				return
			}
			pending = pending[need:]
			need = -1
			g.Completed++
			sendReq()
		}
	}
}
