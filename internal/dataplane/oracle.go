package dataplane

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/packet"
)

// DiffConfig parameterizes one differential-oracle run.
type DiffConfig struct {
	// Seed drives every random choice (packet interleaving, churn
	// schedules); the same seed replays the same run.
	Seed int64
	// Flows is the count of stable flows: entries installed before the
	// engine starts and never touched by churn, so their packets have
	// exactly one correct outcome, precomputed through Ref.
	Flows int
	// PacketsPerFlow is how many packets each stable flow sends.
	PacketsPerFlow int
	// ChurnKeys is the count of keys the churners install/remove while
	// traffic runs. Packets to these keys race the control plane by
	// design: the oracle accepts Pass or any self-consistent rewrite,
	// and rejects everything else (a torn entry cannot produce a
	// self-consistent rewrite).
	ChurnKeys int
	// Churners is the concurrent control-plane goroutine count; each
	// owns a disjoint subset of the churn keys.
	Churners int
	// ChurnOps is the install/remove operation count per churner.
	ChurnOps int
	// Engine configures the engine under test.
	Engine Config
}

func (c *DiffConfig) fillDefaults() {
	if c.Flows <= 0 {
		c.Flows = 256
	}
	if c.PacketsPerFlow <= 0 {
		c.PacketsPerFlow = 8
	}
	if c.ChurnKeys < 0 {
		c.ChurnKeys = 0
	}
	if c.Churners <= 0 {
		c.Churners = 4
	}
	if c.ChurnOps <= 0 {
		c.ChurnOps = 400
	}
}

// flowTuple is stable flow i's five-tuple.
func flowTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.MakeAddr(10, 0, byte(i>>8), byte(i)),
		DstIP:   packet.MakeAddr(10, 1, byte(i>>8), byte(i)),
		SrcPort: packet.Port(40000 + i%20000),
		DstPort: 80,
	}
}

// stableEntry is stable flow i's rewrite, alternating directions so both
// sides of the kernel are diffed.
func stableEntry(i int) *Entry {
	d := int64(i%9000) + 1
	to := packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.MakeAddr(20, 0, byte(i>>8), byte(i)),
		DstIP:   packet.MakeAddr(20, 1, byte(i>>8), byte(i)),
		SrcPort: packet.Port(30000 + i%20000),
		DstPort: 8080,
	}
	if i%2 == 0 {
		return &Entry{Dir: Egress, Rule: core.Rule{
			To: to, AckAdd: -d, TSEcrAdd: -3 * d,
			WinFrom: int8(i % 4), WinTo: int8((i + 1) % 4),
		}}
	}
	return &Entry{Dir: Ingress, Rule: core.Rule{To: to, SeqAdd: d, TSAdd: 3 * d}}
}

// churnKey is churn key j's five-tuple, disjoint from every flowTuple.
func churnKey(j int) packet.FiveTuple {
	return packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.MakeAddr(172, 16, byte(j>>8), byte(j)),
		DstIP:   packet.MakeAddr(172, 17, byte(j>>8), byte(j)),
		SrcPort: packet.Port(50000 + j%10000),
		DstPort: 8081,
	}
}

// chainBits is how many top slot bits two keys must share to count as
// colliding: the same home slot in every slot array of up to
// 1<<chainBits slots, neighboring slots in larger ones.
const chainBits = 6

// churnKeys returns the n distinct keys a run's control plane churns.
// Even positions are churnKey(j) as is. Odd positions are picked — by
// walking churnKey indices from n upward — to fall in the shard and on
// the home slot of one of the stable tuples, so the churn writes its
// replacements, tombstones and cluster-end nils into the very probe
// chains the exact-match flows are read through. If the walk runs out of
// distinct churnKey indices the remaining odd positions stay plain.
func churnKeys(t *Table, n int, stable []packet.FiveTuple) []packet.FiveTuple {
	type cell struct {
		shard int
		home  uint64
	}
	cellOf := func(ft packet.FiveTuple) cell {
		h := ft.Hash()
		return cell{t.shardIndex(h), t.slotBits(h) >> (64 - chainBits)}
	}
	homes := make(map[cell]bool, len(stable))
	for _, ft := range stable {
		homes[cellOf(ft)] = true
	}
	keys := make([]packet.FiveTuple, n)
	next := n
	for j := range keys {
		keys[j] = churnKey(j)
		for j%2 == 1 && next < 1<<16 {
			k := churnKey(next)
			next++
			if homes[cellOf(k)] {
				keys[j] = k
				break
			}
		}
	}
	return keys
}

// churnVersionMax bounds churn rule versions so the version survives a
// round trip through the packet fields checked for consistency.
const churnVersionMax = 30000

// churnRule is version v of churn key j's entry. Every field is a
// function of (key, v), so a reader that observed a mix of two versions
// — a torn entry — would fail the consistency relation below. Immutable
// entries make that impossible; this rule is how the oracle
// would catch it if the protocol were broken.
func churnRule(key packet.FiveTuple, v uint64) *Entry {
	return &Entry{Dir: Ingress, Rule: core.Rule{
		To:     churnTo(key, v),
		SeqAdd: int64(v),
		TSAdd:  3 * int64(v),
	}}
}

// churnTo derives version v's rewrite target from the key.
func churnTo(key packet.FiveTuple, v uint64) packet.FiveTuple {
	to := key.Reverse()
	to.DstPort = packet.Port(10000 + v)
	return to
}

// expectKind classifies what the oracle demands of one fed packet.
type expectKind uint8

const (
	expectExact expectKind = iota // stable flow: outcome must equal Ref's
	expectChurn                   // churn key: Pass or self-consistent rewrite
)

// expectation is one fed packet's acceptance predicate, queued in feed
// order per worker (worker FIFO order makes the comparison positional).
type expectation struct {
	kind expectKind
	key  packet.FiveTuple // churn: the key fed
	in   Outcome          // header as fed (pre-rewrite)
	want Outcome          // exact: Ref's outcome
}

// outcomeOf snapshots a packet's oracle-relevant header fields.
func outcomeOf(p *packet.Packet, v Verdict) Outcome {
	o := Outcome{Tuple: p.Tuple, Seq: p.Seq, Ack: p.Ack, Window: p.Window, Verdict: v}
	if p.Opts.TS != nil {
		o.TSVal, o.TSEcr = p.Opts.TS.Val, p.Opts.TS.Ecr
	}
	return o
}

// RunDiff replays one identical packet+control sequence through the
// single-threaded Ref and the concurrent Engine and returns an error on
// the first divergence. Stable-flow packets must match Ref exactly
// (flow→worker pinning preserves per-flow order, so the comparison is
// positional per worker). Packets to churned keys race concurrent
// Install/Remove calls — for those the oracle demands the outcome be
// either an untouched Pass or a rewrite whose fields are mutually
// consistent with one single installed version, which a torn or
// partially-installed entry cannot produce. Run it under -race: the race
// detector checks the memory protocol while the oracle checks the
// packet semantics.
func RunDiff(cfg DiffConfig) error {
	cfg.fillDefaults()
	eng := New(cfg.Engine)
	ref := NewRef(cfg.Engine)

	stable := make([]packet.FiveTuple, cfg.Flows)
	for i := range stable {
		stable[i] = flowTuple(i)
		eng.table.Install(stable[i], stableEntry(i))
		ref.Install(stable[i], stableEntry(i))
	}
	churn := churnKeys(eng.table, cfg.ChurnKeys, stable)

	// Build the packet sequence and its expectations. Two identical
	// packets are built per sequence slot: one is consumed by Ref now
	// (computing the expected outcome), the other is fed to the engine.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var feed []*packet.Packet
	expected := make([][]expectation, eng.Workers())
	addStable := func(i, k int) {
		mk := func() *packet.Packet {
			p := packet.NewTCP(flowTuple(i), packet.FlagACK,
				uint32(1000*i+10*k), uint32(500+k), nil)
			p.Window = uint16(1024 + k)
			p.Opts.TS = &packet.Timestamp{Val: uint32(70000 + k), Ecr: uint32(80000 + k)}
			return p
		}
		pRef, pEng := mk(), mk()
		v := ref.Process(pRef)
		w := eng.WorkerFor(pEng.Tuple)
		expected[w] = append(expected[w], expectation{kind: expectExact, want: outcomeOf(pRef, v)})
		feed = append(feed, pEng)
	}
	addChurn := func(j int) {
		key := churn[j]
		p := packet.NewTCP(key, packet.FlagACK, uint32(100000+j), uint32(200000+j), nil)
		p.Window = 512
		p.Opts.TS = &packet.Timestamp{Val: 90000, Ecr: 91000}
		w := eng.WorkerFor(key)
		expected[w] = append(expected[w], expectation{kind: expectChurn, key: key, in: outcomeOf(p, Pass)})
		feed = append(feed, p)
	}
	for k := 0; k < cfg.PacketsPerFlow; k++ {
		for i := 0; i < cfg.Flows; i++ {
			addStable(i, k)
			if cfg.ChurnKeys > 0 && rng.Intn(4) == 0 {
				addChurn(rng.Intn(cfg.ChurnKeys))
			}
		}
	}

	eng.SetRecording(true)
	eng.Start()

	// Concurrent control plane: each churner owns the churn keys
	// congruent to its index, so per-key version order is deterministic
	// even though cross-key interleaving is not.
	var churnWG sync.WaitGroup
	for c := 0; c < cfg.Churners && cfg.ChurnKeys > 0; c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			crng := rand.New(rand.NewSource(cfg.Seed + 1 + int64(c)))
			var mine []int
			for j := c; j < cfg.ChurnKeys; j += cfg.Churners {
				mine = append(mine, j)
			}
			ver := make(map[int]uint64, len(mine))
			for op := 0; op < cfg.ChurnOps; op++ {
				j := mine[crng.Intn(len(mine))]
				if crng.Intn(3) == 0 {
					eng.table.Remove(churn[j])
					continue
				}
				ver[j] = ver[j]%churnVersionMax + 1
				eng.table.Install(churn[j], churnRule(churn[j], ver[j]))
			}
		}(c)
	}

	// Single feeder (the SPSC producer); spin-yield on full rings.
	for _, p := range feed {
		for !eng.Feed(p) {
			runtime.Gosched()
		}
	}
	churnWG.Wait()
	eng.Stop()

	for w := 0; w < eng.Workers(); w++ {
		got, want := eng.Outcomes(w), expected[w]
		if len(got) != len(want) {
			return fmt.Errorf("worker %d: %d outcomes for %d fed packets", w, len(got), len(want))
		}
		for i, o := range got {
			if err := checkOutcome(o, want[i], cfg.Engine.DisableOptionTranslation); err != nil {
				return fmt.Errorf("worker %d packet %d: %w", w, i, err)
			}
		}
	}
	return nil
}

// checkOutcome applies one expectation. noOpts mirrors the engine's
// DisableOptionTranslation: the churn consistency relation on TS.Val
// only holds when the kernel translates options.
func checkOutcome(got Outcome, want expectation, noOpts bool) error {
	if want.kind == expectExact {
		if got != want.want {
			return fmt.Errorf("diverged from reference:\n  engine %+v\n  ref    %+v", got, want.want)
		}
		return nil
	}
	// Churn key: raced the control plane.
	in := want.in
	if got.Verdict == Pass {
		in.Verdict = Pass
		if got != in {
			return fmt.Errorf("passed packet was modified:\n  got %+v\n  fed %+v", got, in)
		}
		return nil
	}
	// Rewritten: recover the version from the seq delta and demand every
	// other field agree with exactly that version of the churn rule.
	dSeq := int64(packet.SeqDiff(in.Seq, got.Seq))
	if dSeq < 1 || dSeq > churnVersionMax {
		return fmt.Errorf("rewrite with impossible seq delta %d: %+v", dSeq, got)
	}
	v := uint64(dSeq)
	if got.Tuple != churnTo(want.key, v) {
		return fmt.Errorf("torn entry: seq delta says version %d but tuple is %v (want %v)",
			v, got.Tuple, churnTo(want.key, v))
	}
	wantTSDelta := 3 * dSeq
	if noOpts {
		wantTSDelta = 0
	}
	if int64(packet.SeqDiff(in.TSVal, got.TSVal)) != wantTSDelta {
		return fmt.Errorf("torn entry: seq delta %d but TS.Val delta %d (want %d)",
			dSeq, packet.SeqDiff(in.TSVal, got.TSVal), wantTSDelta)
	}
	if got.Ack != in.Ack || got.Window != in.Window || got.TSEcr != in.TSEcr {
		return fmt.Errorf("ingress churn rewrite touched egress-side fields: got %+v fed %+v", got, in)
	}
	return nil
}
