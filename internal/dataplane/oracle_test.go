package dataplane

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// TestEngineMatchesRefSequential is the deterministic half of the
// differential oracle: no churn, so every packet (stable and
// churn-keyed) has exactly one correct outcome.
func TestEngineMatchesRefSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		if err := RunDiff(DiffConfig{
			Seed: 42, Flows: 128, PacketsPerFlow: 6, ChurnKeys: 0,
			Engine: Config{Workers: workers, Shards: 16, RingSize: 256, Batch: 8},
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestEngineDiffUnderChurn is the concurrent half: stable flows must
// still match Ref exactly while churners install/remove entries, and
// racing packets must never observe a torn entry. Run under -race in CI.
func TestEngineDiffUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		if err := RunDiff(DiffConfig{
			Seed: seed, Flows: 96, PacketsPerFlow: 8,
			ChurnKeys: 48, Churners: 3, ChurnOps: 600,
			Engine: Config{Workers: 4, Shards: 8, RingSize: 128, Batch: 16},
		}); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// TestEngineDiffOptionTranslationOff diffs the ablated kernel too.
func TestEngineDiffOptionTranslationOff(t *testing.T) {
	if err := RunDiff(DiffConfig{
		Seed: 9, Flows: 64, PacketsPerFlow: 4, ChurnKeys: 16,
		Engine: Config{Workers: 2, Shards: 4, DisableOptionTranslation: true},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAgainstAgentKernel pins the engine to the simulator: a
// packet run through Engine.ProcessInline and a packet run through the
// same core.Rule the agent executes must end up byte-identical.
func TestEngineAgainstAgentKernel(t *testing.T) {
	rule := core.Rule{
		To:     packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6},
		AckAdd: -12345, TSEcrAdd: -77, WinFrom: 2, WinTo: 1,
	}
	eng := New(Config{Workers: 1, Shards: 1})
	ft := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	eng.Table().Install(ft, &Entry{Dir: Egress, Rule: rule})

	mk := func() *packet.Packet {
		p := packet.NewTCP(ft, packet.FlagACK, 100, 20000, make([]byte, 64))
		p.Window = 4096
		p.Opts.TS = &packet.Timestamp{Val: 11, Ecr: 22}
		p.Opts.SACK = []packet.SACKBlock{{Start: 21000, End: 22000}}
		return p
	}
	pEng, pRule := mk(), mk()
	if v := eng.ProcessInline(pEng); v != Rewritten {
		t.Fatalf("verdict = %v, want Rewritten", v)
	}
	rule.ApplyEgress(pRule, true)
	if pEng.Tuple != pRule.Tuple || pEng.Seq != pRule.Seq || pEng.Ack != pRule.Ack ||
		pEng.Window != pRule.Window || *pEng.Opts.TS != *pRule.Opts.TS ||
		pEng.Opts.SACK[0] != pRule.Opts.SACK[0] {
		t.Fatalf("engine diverged from kernel:\n  engine %+v %+v\n  kernel %+v %+v",
			pEng, pEng.Opts, pRule, pRule.Opts)
	}
}

// TestEngineDrainsOnStop: packets fed before Stop are all processed.
func TestEngineDrainsOnStop(t *testing.T) {
	eng := New(Config{Workers: 2, Shards: 4, RingSize: 64, Batch: 4})
	eng.Start()
	const total = 5000
	fed := 0
	for i := 0; i < total; i++ {
		p := packet.NewTCP(testTuple(i%100), packet.FlagACK, uint32(i), 0, nil)
		for !eng.Feed(p) {
			runtime.Gosched()
		}
		fed++
	}
	eng.Stop()
	st := eng.Stats()
	if st.Processed != uint64(fed) {
		t.Fatalf("processed %d of %d fed packets", st.Processed, fed)
	}
	if st.Rewritten != 0 {
		t.Fatalf("rewritten %d with empty table", st.Rewritten)
	}
}

// TestChurnKeysCollide: the oracles' churn must land in the stable
// flows' probe chains, not merely in their shards — every odd churn key
// shares a shard and a home slot (at any array size up to 1<<chainBits)
// with some stable flow, and all keys are distinct.
func TestChurnKeysCollide(t *testing.T) {
	tb := NewTable(8)
	stable := make([]packet.FiveTuple, 96)
	for i := range stable {
		stable[i] = flowTuple(i)
	}
	keys := churnKeys(tb, 48, stable)
	seen := map[packet.FiveTuple]bool{}
	for j, k := range keys {
		if seen[k] {
			t.Fatalf("churn key %d repeats %v", j, k)
		}
		seen[k] = true
		if j%2 == 0 {
			continue
		}
		h, shares := k.Hash(), false
		for _, ft := range stable {
			fh := ft.Hash()
			if tb.shardIndex(h) == tb.shardIndex(fh) &&
				tb.slotBits(h)>>(64-chainBits) == tb.slotBits(fh)>>(64-chainBits) {
				shares = true
				break
			}
		}
		if !shares {
			t.Fatalf("churn key %d (%v) shares no stable flow's home slot", j, k)
		}
	}
}

// TestEngineFeedFull: every rejection by a full ring is counted, for
// all four Feed variants. The engine is never started, so nothing
// consumes and each ring accepts exactly its capacity.
func TestEngineFeedFull(t *testing.T) {
	const ringSize, offered = 8, 20
	eng := New(Config{Workers: 2, Shards: 1, RingSize: ringSize})
	// One flow per worker, so Feed/FeedRaw fill both rings too.
	flows := make([]packet.FiveTuple, 2)
	for w := range flows {
		for i := 0; ; i++ {
			if ft := testTuple(i); eng.WorkerFor(ft) == w {
				flows[w] = ft
				break
			}
		}
	}
	accepted, rejected := 0, 0
	count := func(ok bool) {
		if ok {
			accepted++
		} else {
			rejected++
		}
	}
	for i := 0; i < offered; i++ {
		p := packet.NewTCP(flows[0], packet.FlagACK, uint32(i), 0, nil)
		count(eng.Feed(p))
		count(eng.FeedWorker(0, p))
		frame := packet.NewTCP(flows[1], packet.FlagACK, uint32(i), 0, nil).Serialize()
		count(eng.FeedRaw(frame))
		count(eng.FeedRawWorker(1, frame))
	}
	if accepted != 2*ringSize {
		t.Fatalf("two stopped rings of %d accepted %d items", ringSize, accepted)
	}
	if got := eng.Stats().FeedFull; got != uint64(rejected) || rejected != 4*offered-2*ringSize {
		t.Fatalf("FeedFull = %d, callers saw %d rejections (want %d)", got, rejected, 4*offered-2*ringSize)
	}
	// The counter survives a run: draining the rings rejects nothing more.
	eng.Start()
	eng.Stop()
	if st := eng.Stats(); st.FeedFull != uint64(rejected) || st.Processed != uint64(accepted) {
		t.Fatalf("after drain: %+v", st)
	}
}
