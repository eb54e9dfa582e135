package dataplane

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

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

// testFrame is packet seq of testTuple(i)'s flow, serialized.
func testFrame(i int, seq uint32) []byte {
	return packet.NewTCP(testTuple(i), packet.FlagACK, seq, 0, nil).Serialize()
}

// TestEngineDrainsOnStop: frames fed before Stop are all processed — a
// nil frame included, which is just one more frame ParseView rejects.
func TestEngineDrainsOnStop(t *testing.T) {
	eng := New(Config{Workers: 2, Shards: 4, RingSize: 64, Batch: 4})
	eng.Start()
	const total = 5000
	for i := 0; i < total; i++ {
		frame := testFrame(i%100, uint32(i))
		if i == total/2 {
			frame = nil
		}
		for !eng.FeedRaw(frame) {
			runtime.Gosched()
		}
	}
	eng.Stop()
	st := eng.Stats()
	if st.Processed != total {
		t.Fatalf("processed %d of %d fed frames", st.Processed, total)
	}
	if st.Rewritten != 0 || st.Rejected != 1 {
		t.Fatalf("rewritten %d, rejected %d with an empty table and one nil frame", st.Rewritten, st.Rejected)
	}
}

// TestEngineFeedFull: every rejection by a full ring is counted, for
// both Feed variants. The engine is never started, so nothing consumes
// and each ring accepts exactly its capacity.
func TestEngineFeedFull(t *testing.T) {
	const ringSize, offered = 8, 20
	eng := New(Config{Workers: 2, Shards: 1, RingSize: ringSize})
	// FeedRaw fills worker 0's ring by flow hash, FeedRawWorker worker 1's.
	flow := 0
	for eng.WorkerFor(testTuple(flow)) != 0 {
		flow++
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
		frame := testFrame(flow, uint32(i))
		count(eng.FeedRaw(frame))
		count(eng.FeedRawWorker(1, frame))
	}
	if accepted != 2*ringSize {
		t.Fatalf("two stopped rings of %d accepted %d frames", ringSize, accepted)
	}
	if got := eng.Stats().FeedFull; got != uint64(rejected) || rejected != 2*offered-2*ringSize {
		t.Fatalf("FeedFull = %d, callers saw %d rejections (want %d)", got, rejected, 2*offered-2*ringSize)
	}
	// The counter survives a run: draining the rings rejects nothing more.
	eng.Start()
	eng.Stop()
	if st := eng.Stats(); st.FeedFull != uint64(rejected) || st.Processed != uint64(accepted) {
		t.Fatalf("after drain: %+v", st)
	}
}

// TestFeedRawPinsFlowsInOrder: FeedRaw puts every frame of a flow on the
// flow's WorkerFor ring, in feed order — the engine-level half of
// per-flow ordering (TestRingSPSC covers the ring under concurrency).
// The engine is never started, so the rings can be popped directly.
func TestFeedRawPinsFlowsInOrder(t *testing.T) {
	const flows, perFlow, workers = 24, 8, 3
	eng := New(Config{Workers: workers, Shards: 1, RingSize: flows * perFlow})
	want := make([][][]byte, workers)
	for k := 0; k < perFlow; k++ {
		for i := 0; i < flows; i++ {
			frame := testFrame(i, uint32(k))
			if !eng.FeedRaw(frame) {
				t.Fatalf("flow %d frame %d: ring full", i, k)
			}
			w := eng.WorkerFor(testTuple(i))
			want[w] = append(want[w], frame)
		}
	}
	buf := make([][]byte, flows*perFlow)
	for w, ring := range want {
		got := buf[:eng.workers[w].ring.PopBatch(buf)]
		if len(got) != len(ring) || len(ring) == 0 {
			t.Fatalf("worker %d holds %d frames, want %d (and > 0)", w, len(got), len(ring))
		}
		for i := range got {
			// The very buffer fed at this position, not merely equal
			// bytes.
			if &got[i][0] != &ring[i][0] {
				t.Fatalf("worker %d slot %d: got %x, want %x", w, i, got[i], ring[i])
			}
		}
	}
}

// TestEngineWorkerForAnyCount: WorkerFor spreads flows over every
// worker for any worker count, not only powers of two, and for powers
// of two it is packet.Bucket on the rotated hash — the definition the
// ≤2×-mean occupancy property in package packet is stated for.
func TestEngineWorkerForAnyCount(t *testing.T) {
	const tuples = 10000
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16} {
		eng := New(Config{Workers: n, Shards: 1})
		counts := make([]int, n)
		for i := 0; i < tuples; i++ {
			w := eng.WorkerFor(testTuple(i))
			counts[w]++
			if n&(n-1) == 0 {
				h := testTuple(i).Hash()
				if want := packet.Bucket(h<<32|h>>32, n); w != want {
					t.Fatalf("workers=%d: WorkerFor = %d, packet.Bucket = %d", n, w, want)
				}
			}
		}
		for w, c := range counts {
			if c < tuples/n/2 || c > 2*tuples/n {
				t.Fatalf("workers=%d: worker %d got %d of %d flows, outside 2x of uniform: %v", n, w, c, tuples, counts)
			}
		}
	}
}
