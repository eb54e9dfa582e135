package fault

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Scenario is one end-to-end reconfiguration setup: the only place the
// repository builds it. cmd/dyscotrace replays it at its Inspect size,
// the fault harness under a fault plan at its Sweep size.
type Scenario struct {
	Name string
	Desc string
	// Roles this scenario populates; plan ops naming other roles skip.
	Roles []string
	// Inspect is the full-size run the timeline inspector renders: 1 Gb/s
	// access links, default agents. Sweep is shrunk and slowed (200 Mb/s,
	// early reconfiguration) so fault windows in the first ~100 ms of
	// virtual time overlap the transfer and the reconfiguration protocol
	// exchange, and its agents collect idle state within the horizon.
	Inspect, Sweep Params
	// Build constructs the testbed; see Instance for the steps after it.
	Build func(seed int64, p Params) *Instance
}

// Params are the values a scenario's parameter sets set differently. The
// testbed is the paper's Figure 11: Pairs clients, the scenario's
// middleboxes, then Pairs servers, all on access links to one router;
// every client's port-80 sessions chain through the first middlebox.
type Params struct {
	// Pairs is the number of client/server pairs; zero means one pair,
	// named client and server (more are client0, server0, client1, ...).
	Pairs int
	Link  netsim.LinkConfig // every client's and server's access link
	// MBLink is every middlebox's access link; zero means Link.
	MBLink netsim.LinkConfig
	Agent  core.Config // every agent
	Bytes  int         // each client's transfer to its server
	// ReconfigAt is when each client starts its reconfiguration;
	// proxyremoval ignores it (its proxy splices on its own).
	ReconfigAt sim.Time
	// Horizon is when the run ends; at Sweep size it includes the quiet
	// period after the last fault clears, during which idle GC must
	// drain every agent's session table.
	Horizon sim.Time
}

// Scenarios returns the scenarios in sweep order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:    "proxyremoval",
			Desc:    "TCP proxy splices itself out mid-transfer (§5.3)",
			Roles:   []string{"client", "mid1", "server"},
			Inspect: inspect(200*time.Microsecond, 4<<20, 0, 20*time.Second),
			Sweep:   sweep(512 << 10),
			Build:   buildProxyRemoval,
		},
		{
			Name:    "chain",
			Desc:    "monitor middlebox replaced mid-transfer",
			Roles:   []string{"client", "mid1", "mid2", "server"},
			Inspect: inspect(100*time.Microsecond, 128<<10, 50*time.Millisecond, 10050*time.Millisecond),
			Sweep:   sweep(256 << 10),
			Build:   buildChain,
		},
		{
			Name:    "statemigration",
			Desc:    "stateful firewall replaced with state transfer (Fig. 15)",
			Roles:   []string{"client", "mid1", "mid2", "server"},
			Inspect: inspect(200*time.Microsecond, 1<<20, 500*time.Millisecond, 10500*time.Millisecond),
			Sweep:   sweep(256 << 10),
			Build:   buildStateMigration,
		},
	}
}

// ScenarioByName returns the named scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

func inspect(delay sim.Time, bytes int, reconfigAt, horizon sim.Time) Params {
	return Params{
		Link:  netsim.LinkConfig{Delay: delay, Bandwidth: netsim.Gbps(1)},
		Bytes: bytes, ReconfigAt: reconfigAt, Horizon: horizon,
	}
}

func sweep(bytes int) Params {
	return Params{
		Link: harnessLink(), Agent: harnessCfg(),
		Bytes: bytes, ReconfigAt: 5 * time.Millisecond, Horizon: 12 * time.Second,
	}
}

// harnessCfg is the agent configuration at Sweep size. The liveness
// timeouts are aggressive so the quiet period can observe full cleanup:
// locks orphaned by a crashed requestor are reclaimed after LockTimeout,
// a wedged right anchor aborts after AttemptTimeout, and idle sessions
// are collected within IdleTimeout+GCInterval.
func harnessCfg() core.Config {
	return core.Config{
		IdleTimeout:    2 * time.Second,
		GCInterval:     500 * time.Millisecond,
		LockTimeout:    1500 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
	}
}

func harnessLink() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Mbps(200)}
}

// Instance is one constructed run. Build leaves it unobserved with
// nothing sent; a caller that reads the event log calls Observe, attaches
// what else it watches, then calls Start and Run, and checks the result.
// A caller that drives its own traffic uses the nodes and skips Start.
type Instance struct {
	Env *lab.Env
	// Clients[i] and Servers[i] are pair i's endpoints; Mids are the
	// scenario's middleboxes, in the order its roles name them.
	Clients, Mids, Servers []*lab.Node
	// Proxy is proxyremoval's relay on Mids[0]; nil in other scenarios.
	Proxy *mbox.Proxy
	p     Params
	// reconfig is what each client starts at p.ReconfigAt toward its own
	// server; nil when the scenario reconfigures itself.
	reconfig *core.ReconfigOptions
	got      []*[]byte
	sendErr  error
	// ctlErr records a StartReconfig call that failed synchronously.
	ctlErr error
}

// mid is one middlebox of a scenario, by host name.
type mid struct {
	name string
	opt  lab.HostOptions
}

func newInstance(seed int64, p Params) *Instance {
	return &Instance{Env: lab.NewEnv(seed), p: p}
}

// layout adds the Figure 11 testbed in address order (clients, mids,
// servers), computes the routes, and steers every client's port-80
// sessions through the first middlebox.
func (in *Instance) layout(mids ...mid) {
	p, env := in.p, in.Env
	pairs := max(p.Pairs, 1)
	add := func(name string, opt lab.HostOptions, link netsim.LinkConfig) *lab.Node {
		opt.Link, opt.AgentCfg = link, p.Agent
		return env.AddNode(name, opt)
	}
	endpoint := func(name string, i int) *lab.Node {
		if pairs > 1 {
			name = fmt.Sprintf("%s%d", name, i)
		}
		return add(name, lab.HostOptions{Stack: true, Agent: true}, p.Link)
	}
	for i := range pairs {
		in.Clients = append(in.Clients, endpoint("client", i))
	}
	mbLink := p.MBLink
	if mbLink == (netsim.LinkConfig{}) {
		mbLink = p.Link
	}
	for _, m := range mids {
		in.Mids = append(in.Mids, add(m.name, m.opt, mbLink))
	}
	for i := range pairs {
		in.Servers = append(in.Servers, endpoint("server", i))
	}
	env.Net.ComputeRoutes()
	for _, c := range in.Clients {
		env.ChainPolicy(c, 80, in.Mids[0])
	}
}

// Observe gives every host an event recorder feeding one hub and returns
// it. The per-packet rewrite, retransmit and RTO kinds are masked so long
// lossy runs stay within recorder limits (counters still accumulate).
// Call it before Start; Violations needs it.
func (in *Instance) Observe() *obs.Hub {
	hub := in.Env.Observe()
	in.perPacket((*obs.Recorder).Disable)
	return hub
}

func (in *Instance) perPacket(op func(*obs.Recorder, ...obs.Kind)) {
	hub := in.Env.Hub()
	for _, host := range hub.Hosts() {
		op(hub.Recorder(host), obs.KRewrite, obs.KRetransmit, obs.KRTO)
	}
}

// StorePerPacket observes the instance and stores the per-packet
// rewrite, retransmit and RTO events too. Call it before Start.
func (in *Instance) StorePerPacket() {
	in.Observe()
	in.perPacket((*obs.Recorder).Enable)
}

// Start opens each client's session to its server, which sends the
// pattern once established, and schedules the reconfigurations.
func (in *Instance) Start() {
	for i, client := range in.Clients {
		server := in.Servers[i]
		in.got = append(in.got, collectAt(server, 80))
		conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
		conn.OnEstablished = func() {
			if err := conn.Send(pattern(in.p.Bytes)); err != nil && in.sendErr == nil {
				in.sendErr = err
			}
		}
		if in.reconfig == nil {
			continue
		}
		opt := *in.reconfig
		opt.RightAnchor = server.Addr()
		in.Env.Eng.At(in.p.ReconfigAt, func() {
			if err := client.Agent.StartReconfig(conn.Tuple(), opt); err != nil && in.ctlErr == nil {
				in.ctlErr = err
			}
		})
	}
}

// Run advances the testbed to the horizon.
func (in *Instance) Run() { in.Env.RunUntil(in.p.Horizon) }

// Received is the number of bytes the servers have collected since Start.
func (in *Instance) Received() int {
	n := 0
	for _, got := range in.got {
		n += len(*got)
	}
	return n
}

// Violations checks a finished, observed run that no fault could
// defeat: the byte oracle of deliveryViolations, plus at least one
// reconfiguration done and none failed.
func (in *Instance) Violations() []string {
	hub := in.Env.Hub()
	if hub == nil {
		return []string{"instance not observed: call Observe before Start"}
	}
	done, failed, split := reconfigOutcomes(hub.Events())
	return append(in.deliveryViolations(), reconfigViolations(done, failed, split, false)...)
}

// deliveryViolations checks that the scenario's own control and send
// calls succeeded and that each server's reassembled byte stream equals
// the sent pattern exactly (P2/P4): no loss, duplication, or corruption
// survives to the application.
func (in *Instance) deliveryViolations() []string {
	var v []string
	if in.ctlErr != nil {
		v = append(v, fmt.Sprintf("control: StartReconfig failed: %v", in.ctlErr))
	}
	if in.sendErr != nil {
		v = append(v, fmt.Sprintf("send: %v", in.sendErr))
	}
	want := pattern(in.p.Bytes)
	for i, got := range in.got {
		got, at := *got, in.Servers[i].Host.Name
		if len(got) != len(want) {
			v = append(v, fmt.Sprintf("bytes: %s received %d of %d", at, len(got), len(want)))
		}
		for j := 0; j < len(got) && j < len(want); j++ {
			if got[j] != want[j] {
				v = append(v, fmt.Sprintf("bytes: %s corruption at offset %d (got %#x want %#x)", at, j, got[j], want[j]))
				break
			}
		}
	}
	return v
}

// targets returns the fault plan's view of each role: pair 0's client
// and server, and the middleboxes as mid1, mid2.
func (in *Instance) targets() map[string]Target {
	router := in.Env.Router.Addr
	t := map[string]Target{
		"client": target(in.Clients[0], router),
		"server": target(in.Servers[0], router),
	}
	for i, m := range in.Mids {
		t[fmt.Sprintf("mid%d", i+1)] = target(m, router)
	}
	return t
}

// pattern is the deterministic transfer payload; the byte oracle
// compares each server's reassembled stream against it (P2/P4).
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 17)
	}
	return b
}

func collectAt(server *lab.Node, port packet.Port) *[]byte {
	got := new([]byte)
	server.Stack.Listen(port, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { *got = append(*got, b...) }
	})
	return got
}

func target(n *lab.Node, router packet.Addr) Target {
	return Target{Host: n.Host, Agent: n.Agent, Via: router}
}

// buildProxyRemoval: a TCP-terminating L7 proxy relays each client's
// session to its server and, after the first 64 KB, splices itself out
// while the transfer continues — the headline Dysco use case (§1,
// §5.3). The client, the proxy being deleted and the server participate.
func buildProxyRemoval(seed int64, p Params) *Instance {
	in := newInstance(seed, p)
	in.layout(mid{"proxy", lab.HostOptions{Stack: true, Agent: true}})
	proxyHost := in.Mids[0]
	in.Proxy = mbox.NewProxy(proxyHost.Stack, proxyHost.Agent, 80,
		func(c *tcp.Conn) (packet.Addr, packet.Port) { return c.Tuple().SrcIP, 80 })
	in.Proxy.AutoSpliceAfter = 64 << 10
	return in
}

// buildChain: a chain through one monitor middlebox, which each client
// replaces with a second monitor host mid-transfer.
func buildChain(seed int64, p Params) *Instance {
	in := newInstance(seed, p)
	in.layout(
		mid{"mb1", lab.HostOptions{App: mbox.NewMonitor()}},
		mid{"mb2", lab.HostOptions{App: mbox.NewMonitor()}})
	in.reconfig = &core.ReconfigOptions{NewMiddleboxes: []packet.Addr{in.Mids[1].Addr()}}
	return in
}

// buildStateMigration: a stateful firewall is replaced by a second
// instance mid-session with its conntrack entry exported, shipped, and
// imported before the path switches (§5.3, Figure 15) — the
// state-transfer phase of the span is the long one.
func buildStateMigration(seed int64, p Params) *Instance {
	in := newInstance(seed, p)
	firewall := func(name string) mid {
		return mid{name, lab.HostOptions{App: mbox.NewFirewall(in.Env.Eng, mbox.FirewallRule{DstPort: 80})}}
	}
	in.layout(firewall("firewall1"), firewall("firewall2"))
	fw1, fw2 := in.Mids[0].Addr(), in.Mids[1].Addr()
	in.reconfig = &core.ReconfigOptions{NewMiddleboxes: []packet.Addr{fw2}, StateFrom: fw1, StateTo: fw2}
	return in
}
