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

// Params are the values a scenario's two sizes set differently.
type Params struct {
	Link  netsim.LinkConfig // every access link
	Agent core.Config       // every agent
	Bytes int               // the client's transfer to the server
	// ReconfigAt is when the client starts the reconfiguration; the
	// proxy of proxyremoval ignores it and splices itself out after 64 KB.
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

// Instance is one constructed run. Build leaves it observed, with the
// per-packet event kinds masked and nothing sent; the caller attaches
// what else it watches, then calls Start and Run, and checks the result.
type Instance struct {
	Env *lab.Env
	p   Params
	// roles maps each role a fault plan may name to its node.
	roles map[string]*lab.Node
	// reconfig is what the client starts at p.ReconfigAt; nil when the
	// scenario reconfigures itself.
	reconfig *core.ReconfigOptions
	got      *[]byte
	sendErr  error
	// ctlErr records a StartReconfig call that failed synchronously.
	ctlErr error
}

func newInstance(seed int64, p Params) *Instance {
	env := lab.NewEnv(seed)
	env.Observe()
	return &Instance{Env: env, p: p, roles: map[string]*lab.Node{}}
}

// add creates the node that plays role, on the scenario's link and agent
// configuration.
func (in *Instance) add(role, name string, opt lab.HostOptions) *lab.Node {
	opt.Link, opt.AgentCfg = in.p.Link, in.p.Agent
	n := in.Env.AddNode(name, opt)
	in.roles[role] = n
	return n
}

// route computes the routes, steers the client's port-80 sessions
// through mboxes, and masks the per-packet kinds so long lossy runs stay
// within recorder limits (counters still accumulate).
func (in *Instance) route(mboxes ...*lab.Node) {
	in.Env.Net.ComputeRoutes()
	in.Env.ChainPolicy(in.roles["client"], 80, mboxes...)
	in.perPacket((*obs.Recorder).Disable)
}

func (in *Instance) perPacket(op func(*obs.Recorder, ...obs.Kind)) {
	hub := in.Env.Hub()
	for _, host := range hub.Hosts() {
		op(hub.Recorder(host), obs.KRewrite, obs.KRetransmit, obs.KRTO)
	}
}

// StorePerPacket stores the per-packet rewrite, retransmit and RTO
// events too. Call it before Start.
func (in *Instance) StorePerPacket() { in.perPacket((*obs.Recorder).Enable) }

// Start opens the client's session to the server, which sends the
// pattern once established, and schedules the reconfiguration.
func (in *Instance) Start() {
	client, server := in.roles["client"], in.roles["server"]
	in.got = collectAt(server, 80)
	conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	conn.OnEstablished = func() { in.sendErr = conn.Send(pattern(in.p.Bytes)) }
	if opt := in.reconfig; opt != nil {
		in.Env.Eng.At(in.p.ReconfigAt, func() {
			in.ctlErr = client.Agent.StartReconfig(conn.Tuple(), *opt)
		})
	}
}

// Run advances the testbed to the horizon.
func (in *Instance) Run() { in.Env.RunUntil(in.p.Horizon) }

// Violations checks a finished run that no fault could defeat: the
// byte oracle of deliveryViolations, plus at least one reconfiguration
// done and none failed.
func (in *Instance) Violations() []string {
	done, failed := reconfigOutcomes(in.Env.Hub().Events())
	return append(in.deliveryViolations(), reconfigViolations(done, failed, false)...)
}

// deliveryViolations checks that the scenario's own control and send
// calls succeeded and that the server's reassembled byte stream equals
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
	want, got := pattern(in.p.Bytes), *in.got
	if len(got) != len(want) {
		v = append(v, fmt.Sprintf("bytes: received %d of %d", len(got), len(want)))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			v = append(v, fmt.Sprintf("bytes: corruption at offset %d (got %#x want %#x)", i, got[i], want[i]))
			break
		}
	}
	return v
}

// targets returns the fault plan's view of each role.
func (in *Instance) targets() map[string]Target {
	t := make(map[string]Target, len(in.roles))
	for role, n := range in.roles {
		t[role] = target(n, in.Env.Router.Addr)
	}
	return t
}

// pattern is the deterministic transfer payload; the byte oracle
// compares the server's reassembled stream against it (P2/P4).
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

// buildProxyRemoval: a TCP-terminating L7 proxy relays the client's
// session, splices itself out after 64 KB, and leaves the path while the
// transfer continues — the headline Dysco use case (§1, §5.3). The
// client, the proxy being deleted and the server participate.
func buildProxyRemoval(seed int64, p Params) *Instance {
	in := newInstance(seed, p)
	in.add("client", "client", lab.HostOptions{Stack: true, Agent: true})
	proxyHost := in.add("mid1", "proxy", lab.HostOptions{Stack: true, Agent: true})
	in.add("server", "server", lab.HostOptions{Stack: true, Agent: true})
	in.route(proxyHost)

	proxy := mbox.NewProxy(proxyHost.Stack, proxyHost.Agent, 80,
		func(c *tcp.Conn) (packet.Addr, packet.Port) { return c.Tuple().SrcIP, 80 })
	proxy.AutoSpliceAfter = 64 << 10
	return in
}

// buildChain: a chain through one monitor middlebox, which the client
// replaces with a second monitor host mid-transfer.
func buildChain(seed int64, p Params) *Instance {
	in := newInstance(seed, p)
	in.add("client", "client", lab.HostOptions{Stack: true, Agent: true})
	mb1 := in.add("mid1", "mb1", lab.HostOptions{App: mbox.NewMonitor()})
	mb2 := in.add("mid2", "mb2", lab.HostOptions{App: mbox.NewMonitor()})
	server := in.add("server", "server", lab.HostOptions{Stack: true, Agent: true})
	in.route(mb1)
	in.reconfig = &core.ReconfigOptions{
		RightAnchor:    server.Addr(),
		NewMiddleboxes: []packet.Addr{mb2.Addr()},
	}
	return in
}

// buildStateMigration: a stateful firewall is replaced by a second
// instance mid-session with its conntrack entry exported, shipped, and
// imported before the path switches (§5.3, Figure 15) — the
// state-transfer phase of the span is the long one.
func buildStateMigration(seed int64, p Params) *Instance {
	in := newInstance(seed, p)
	in.add("client", "client", lab.HostOptions{Stack: true, Agent: true})
	fw1App := mbox.NewFirewall(in.Env.Eng, mbox.FirewallRule{DstPort: 80})
	fw2App := mbox.NewFirewall(in.Env.Eng, mbox.FirewallRule{DstPort: 80})
	fw1 := in.add("mid1", "firewall1", lab.HostOptions{App: fw1App})
	fw2 := in.add("mid2", "firewall2", lab.HostOptions{App: fw2App})
	server := in.add("server", "server", lab.HostOptions{Stack: true, Agent: true})
	in.route(fw1)
	in.reconfig = &core.ReconfigOptions{
		RightAnchor:    server.Addr(),
		NewMiddleboxes: []packet.Addr{fw2.Addr()},
		StateFrom:      fw1.Addr(),
		StateTo:        fw2.Addr(),
	}
	return in
}
