package app_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/lab"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

func fastLink() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Gbps(10)}
}

func TestSourceSinkGoodput(t *testing.T) {
	env := lab.NewEnv(1)
	link := netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Mbps(200)}
	c := env.AddNode("c", lab.HostOptions{Link: link, Stack: true})
	s := env.AddNode("s", lab.HostOptions{Link: link, Stack: true})
	env.Net.ComputeRoutes()

	sink := app.NewSink(env.Eng, time.Second)
	sink.Serve(s.Stack, 5001)
	conn := c.Stack.Connect(s.Addr(), 5001, tcp.Config{})
	src := app.NewSource(conn, 0) // unlimited
	env.RunFor(5 * time.Second)
	src.Stop()

	if sink.Total == 0 {
		t.Fatal("no bytes delivered")
	}
	bins := sink.Series.Bins()
	if len(bins) < 4 {
		t.Fatalf("series has %d bins", len(bins))
	}
	// Steady-state bins should be nonzero and roughly stable.
	if bins[2] == 0 || bins[3] == 0 {
		t.Errorf("goodput bins empty: %v", bins)
	}
	if src.Sent < sink.Total {
		t.Errorf("sent %d < delivered %d", src.Sent, sink.Total)
	}
}

// TestSourceSessionsHoldLittleLiveHeap: in Figure 9's topology (four
// client/server pairs through the lab router, 1 Gbps links) 250 bulk
// sessions cost their connection state, not the bytes they keep buffered:
// every Source sends the same read-only block, and the stacks keep the
// slices they are given instead of copies. Live heap is read after GC two
// simulated seconds in. The link queues are 1 MB rather than Figure 9's
// 4 MB: the packets a full queue holds are the links' cost, not the
// sessions', and at 4 MB they alone come to ≈ 40 KB a session.
func TestSourceSessionsHoldLittleLiveHeap(t *testing.T) {
	const sessions = 250
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	env := lab.NewEnv(9)
	link := netsim.LinkConfig{Delay: 20 * time.Microsecond, Bandwidth: netsim.Gbps(1), QueueBytes: 1 << 20}
	var clients, servers []*lab.Node
	for i := 0; i < 4; i++ {
		clients = append(clients, env.AddNode(fmt.Sprintf("client%d", i), lab.HostOptions{Link: link, Stack: true}))
		servers = append(servers, env.AddNode(fmt.Sprintf("server%d", i), lab.HostOptions{Link: link, Stack: true}))
	}
	env.Net.ComputeRoutes()
	var sinks []*app.Sink
	for _, s := range servers {
		sink := app.NewSink(env.Eng, time.Second)
		sink.Serve(s.Stack, 5001)
		sinks = append(sinks, sink)
	}
	var sources []*app.Source
	for i := 0; i < sessions; i++ {
		c, s := clients[i%4], servers[i%4]
		env.Eng.Schedule(time.Duration(i)*time.Millisecond, func() {
			sources = append(sources, app.NewSource(c.Stack.Connect(s.Addr(), 5001, tcp.Config{}), 0))
		})
	}
	env.RunFor(2 * time.Second)

	runtime.GC()
	runtime.ReadMemStats(&after)
	var delivered uint64
	for _, s := range sinks {
		delivered += s.Total
	}
	if len(sources) != sessions || delivered < 50<<20 {
		t.Fatalf("%d sources delivered %d bytes; the sessions are not streaming", len(sources), delivered)
	}
	perSession := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	if perSession > 32<<10 {
		t.Errorf("live heap %d KB per session, want <= 32 KB", perSession>>10)
	}
	t.Logf("live heap %d B per session, %d MB delivered", perSession, delivered>>20)
	runtime.KeepAlive(env)
}

func TestSourceLimitClosesConnection(t *testing.T) {
	env := lab.NewEnv(2)
	c := env.AddNode("c", lab.HostOptions{Link: fastLink(), Stack: true})
	s := env.AddNode("s", lab.HostOptions{Link: fastLink(), Stack: true})
	env.Net.ComputeRoutes()
	sink := app.NewSink(env.Eng, time.Second)
	sink.Serve(s.Stack, 5001)
	conn := c.Stack.Connect(s.Addr(), 5001, tcp.Config{})
	app.NewSource(conn, 300<<10)
	env.RunFor(30 * time.Second)
	if sink.Total != 300<<10 {
		t.Fatalf("delivered %d, want %d", sink.Total, 300<<10)
	}
	if c.Stack.Conns() != 0 {
		t.Errorf("connection not closed after limit (%v)", conn.State())
	}
}

func TestHTTPServerAndLoadGen(t *testing.T) {
	env := lab.NewEnv(3)
	c := env.AddNode("c", lab.HostOptions{Link: fastLink(), Stack: true})
	s := env.AddNode("s", lab.HostOptions{Link: fastLink(), Stack: true})
	env.Net.ComputeRoutes()

	srv := &app.HTTPServer{}
	srv.Serve(s.Stack, 80)
	gen := app.NewLoadGen(c.Stack, s.Addr(), 80, 8, 1000)
	env.RunFor(2 * time.Second)

	if gen.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if gen.Errors != 0 {
		t.Errorf("%d request errors", gen.Errors)
	}
	if srv.Requests < gen.Completed {
		t.Errorf("server handled %d < client completed %d", srv.Requests, gen.Completed)
	}
	// Closed-loop: roughly RTT-bound; with ~0.5 ms RTT and 8 conns expect
	// thousands of requests in 2 s.
	if gen.Completed < 1000 {
		t.Errorf("only %d requests in 2s over 8 connections", gen.Completed)
	}
}

func TestHTTPServerRejectsGarbage(t *testing.T) {
	env := lab.NewEnv(4)
	c := env.AddNode("c", lab.HostOptions{Link: fastLink(), Stack: true})
	s := env.AddNode("s", lab.HostOptions{Link: fastLink(), Stack: true})
	env.Net.ComputeRoutes()
	srv := &app.HTTPServer{}
	srv.Serve(s.Stack, 80)
	conn := c.Stack.Connect(s.Addr(), 80, tcp.Config{})
	reset := false
	conn.OnReset = func() { reset = true }
	conn.OnEstablished = func() { conn.Send([]byte("BOGUS")) }
	env.RunFor(time.Second)
	if !reset {
		t.Error("server did not abort on malformed request")
	}
}
