package fault

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/packet"
)

// RunResult is the outcome of one (scenario, plan, seed) run. All fields
// are deterministic functions of the triple; the JSON rendering is
// byte-identical across runs.
type RunResult struct {
	Scenario string `json:"scenario"`
	Plan     string `json:"plan"`
	Seed     int64  `json:"seed"`

	// EventHash is the obs hub's merged-stream hash; ScheduleHash covers
	// the realized fault schedule; DagHash covers the reconstructed
	// happens-before graph (edges included, so a matching drifted by a
	// fault shows up even when the event stream itself is unchanged).
	// Together they witness determinism.
	EventHash    string `json:"eventHash"`
	ScheduleHash string `json:"scheduleHash"`
	DagHash      string `json:"dagHash"`

	Events uint64 `json:"events"`
	// DeadEndSends counts control transmissions with no matched delivery:
	// dropped or still-in-flight messages surface here as dead-end nodes,
	// never as phantom edges.
	DeadEndSends    int `json:"deadEndSends"`
	BytesExpected   int `json:"bytesExpected"`
	BytesReceived   int `json:"bytesReceived"`
	ReconfigsDone   int `json:"reconfigsDone"`
	ReconfigsFailed int `json:"reconfigsFailed"`

	// Drops aggregates packet drops across every host and link end, by
	// reason (queue, loss, linkDown, fault, hostDown, corrupt).
	Drops map[string]uint64 `json:"drops"`

	// Schedule is the realized fault schedule, one action per line.
	Schedule []string `json:"schedule"`

	// Violations lists every failed oracle; empty means the run is safe.
	Violations []string `json:"violations"`

	// edges counts the model edges the run's transitions took.
	edges map[Edge]int
}

// Run replays one scenario under one fault plan with one seed and checks
// the safety oracles:
//
//   - P2/P4: the server's reassembled byte stream equals the sent
//     pattern exactly — no loss, duplication, or corruption survives to
//     the application, whatever the plan injected.
//   - P5 + no leaks: after the quiet period every agent's session table
//     is empty. This subsumes "every lock is eventually released" and
//     "no reconfiguration state outlives an abort": a held lock or a
//     live *Reconfig keeps its session out of idle GC, so any leak
//     shows up as a non-empty table. The rewrite tables must be empty
//     too: an entry that outlives its session would keep rewriting (or
//     shadow a reused sub-session port) with nothing left to collect it.
//   - P3: under a plan that cannot defeat the new path
//     (!MayFailReconfig), at least one reconfiguration completes and
//     none ends in failure. Plans that crash hosts or black-hole the
//     control plane set MayFailReconfig: the attempt may abort (§3.6),
//     but the abort must be clean per the oracles above. Under every
//     plan, the two anchors of an attempt agree on its outcome.
//   - The model (§3.7): every lock and reconfiguration transition is an
//     edge of internal/model's tables (checkTransitions).
func Run(scenario string, plan Plan, seed int64) (*RunResult, error) {
	return run(scenario, plan, seed, machines())
}

// run is Run with the model's machines already built (deriving the lock
// table explores the lock model), so a sweep builds them once.
func run(scenario string, plan Plan, seed int64, ms []machine) (*RunResult, error) {
	sc, ok := ScenarioByName(scenario)
	if !ok {
		return nil, fmt.Errorf("fault: unknown scenario %q", scenario)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}

	inst := sc.Build(seed, sc.Sweep)
	hub := inst.Observe()
	inst.Start()
	targets := inst.targets()
	inj := NewInjector(inst.Env.Eng, inst.Env.Net, hub.Recorder("fault"), seed, plan, targets)
	inst.Run()

	res := &RunResult{
		Scenario:      sc.Name,
		Plan:          plan.Name,
		Seed:          seed,
		EventHash:     fmt.Sprintf("%016x", hub.Hash()),
		ScheduleHash:  fmt.Sprintf("%016x", inj.ScheduleHash()),
		BytesExpected: inst.p.Bytes * len(inst.Clients),
		BytesReceived: inst.Received(),
		Schedule:      inj.Applied(),
		Violations:    []string{},
		Drops:         map[string]uint64{},
	}
	events := hub.Events()
	res.Events = uint64(len(events))

	// Oracle: causal sanity. Whatever the plan injected — drops, dups,
	// reorders, crashes — the happens-before DAG reconstructed from the
	// surviving events must order cleanly: Lamport clocks strictly
	// increase along every edge and every edge points forward in the
	// merged total order. A violation means faults corrupted the clock
	// piggybacking or the send→recv matching, not that the run misbehaved.
	dag := obs.BuildDAG(events)
	res.DagHash = fmt.Sprintf("%016x", dag.DagHash())
	res.DeadEndSends = dag.DeadEndSends
	if err := dag.CheckOrder(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("causal: %v", err))
	}

	// Oracle: the scenario's control and send calls succeeded and the
	// byte stream is intact (P2/P4).
	res.Violations = append(res.Violations, inst.deliveryViolations()...)

	// Oracle: every session terminated, every lock released, no
	// reconfiguration state leaked (P5 and §3.6 cleanup).
	roles := make([]string, 0, len(targets))
	for r := range targets {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	for _, r := range roles {
		t := targets[r]
		if t.Agent == nil {
			continue
		}
		if n := t.Agent.Sessions(); n != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("leak: %s still holds %d session(s) after quiet period", r, n))
		}
		entries := 0
		t.Agent.EachSubsession(func(string, packet.FiveTuple, packet.FiveTuple, uint64, uint64) { entries++ })
		if entries != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("leak: %s still holds %d rewrite entries after quiet period", r, entries))
		}
	}

	// Oracle: reconfiguration outcome (P3).
	done, failed, split := reconfigOutcomes(events)
	res.ReconfigsDone, res.ReconfigsFailed = len(done), len(failed)
	res.Violations = append(res.Violations, reconfigViolations(done, failed, split, plan.MayFailReconfig)...)

	// Oracle: every lock and reconfiguration transition is a model edge
	// (§3.7), taken by an instance that started in an initial state.
	res.edges = map[Edge]int{}
	res.Violations = append(res.Violations, checkTransitions(ms, events, res.edges)...)

	aggregateDrops(inst, res.Drops)
	return res, nil
}

// reconfigOutcomes returns the reqIDs any anchor reached "done" with;
// sorted, those some anchor reached "failed" with and none "done"; and,
// sorted, those one anchor finished "done" and the other "failed".
func reconfigOutcomes(events []obs.Event) (done map[uint64]bool, failed, split []uint64) {
	done = map[uint64]bool{}
	failedSet := map[uint64]bool{}
	for _, e := range events {
		if e.Kind != obs.KReconfig || e.ReqID == 0 {
			continue
		}
		switch e.To {
		case "done":
			done[e.ReqID] = true
		case "failed":
			failedSet[e.ReqID] = true
		}
	}
	for id := range failedSet {
		if done[id] {
			split = append(split, id)
		} else {
			failed = append(failed, id)
		}
	}
	slices.Sort(failed)
	slices.Sort(split)
	return done, failed, split
}

// reconfigViolations is the P3 oracle: the two anchors of an attempt
// agree on its outcome, and unless the plan may defeat the new path, at
// least one reconfiguration completes and none fails.
func reconfigViolations(done map[uint64]bool, failed, split []uint64, mayFail bool) []string {
	var v []string
	for _, id := range split {
		v = append(v, fmt.Sprintf("reconfig: attempt %d is done at one anchor and failed at the other", id))
	}
	if mayFail {
		return v
	}
	for _, id := range failed {
		v = append(v, fmt.Sprintf("reconfig: attempt %d failed under a plan that cannot defeat the new path", id))
	}
	if len(done) == 0 {
		v = append(v, "reconfig: no attempt completed")
	}
	return v
}

func aggregateDrops(inst *Instance, drops map[string]uint64) {
	for _, h := range inst.Env.Net.Hosts() {
		for _, le := range h.Links() {
			ds := le.DropsByReason()
			drops["queue"] += ds.Queue
			drops["loss"] += ds.Loss
			drops["linkDown"] += ds.LinkDown
			drops["fault"] += ds.Fault
		}
		drops["hostDown"] += h.Stats.DropsHostDown
		drops["corrupt"] += h.Stats.DropsCorrupt
	}
}

// SweepOptions selects the (scenarios × plans × seeds) grid.
type SweepOptions struct {
	Scenarios []string // default: every scenario
	Plans     []Plan   // default: Builtins()
	Seeds     []int64  // default: 1..5
}

// SweepResult is the full grid outcome. ModelEdges lists every edge of
// the model's lock and reconfiguration tables with the number of times
// the runs took it; an edge at zero is one no run exercises.
type SweepResult struct {
	Runs       []*RunResult `json:"runs"`
	Violations int          `json:"violations"`
	ModelEdges []EdgeCount  `json:"modelEdges"`
}

// RunSweep replays every (scenario, plan, seed) combination in
// deterministic order and returns all results.
func RunSweep(opt SweepOptions) (*SweepResult, error) {
	if len(opt.Scenarios) == 0 {
		for _, s := range Scenarios() {
			opt.Scenarios = append(opt.Scenarios, s.Name)
		}
	}
	if len(opt.Plans) == 0 {
		opt.Plans = Builtins()
	}
	if len(opt.Seeds) == 0 {
		opt.Seeds = []int64{1, 2, 3, 4, 5}
	}
	out := &SweepResult{}
	ms := machines()
	for _, sc := range opt.Scenarios {
		for _, plan := range opt.Plans {
			for _, seed := range opt.Seeds {
				r, err := run(sc, plan, seed, ms)
				if err != nil {
					return nil, err
				}
				out.Runs = append(out.Runs, r)
				out.Violations += len(r.Violations)
			}
		}
	}
	for _, e := range modelEdges(ms) {
		n := 0
		for _, r := range out.Runs {
			n += r.edges[e]
		}
		out.ModelEdges = append(out.ModelEdges, EdgeCount{e, n})
	}
	return out, nil
}
