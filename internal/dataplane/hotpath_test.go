package dataplane

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// TestDataplaneLookupZeroAlloc pins the reader fast path of the struct
// kernel — hash, shard, array load, slot probe, epoch stamp, rule
// application — at zero allocations per packet, one input per branch of
// Table.Lookup and Engine.ProcessInline. The raw path's twin is
// TestRawPathZeroAlloc; TestReaderPathTakesNoLock holds both to never
// waiting on a writer.
func TestDataplaneLookupZeroAlloc(t *testing.T) {
	eng := New(Config{Workers: 1, Shards: 64})
	tb := eng.Table()
	for i := 0; i < 1000; i++ {
		tb.Install(testTuple(i), testEntry(i))
	}
	for i := 0; i < 1000; i += 3 {
		tb.Remove(testTuple(i)) // leave tombstones in the probe chains
	}
	hit := testTuple(124)
	miss := testTuple(5000)
	stale := tb.Lookup(hit)

	// The struct kernel: lookup + rewrite in place, both directions.
	egr := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	ingr := egr.Reverse()
	tb.Install(egr, &Entry{Dir: Egress, Rule: core.Rule{
		To:     packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6},
		AckAdd: -12345, TSEcrAdd: -77,
	}})
	tb.Install(ingr, &Entry{Dir: Ingress, Rule: core.Rule{
		To:     packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: 6, DstIP: 7, SrcPort: 8, DstPort: 9},
		SeqAdd: 41, TSAdd: 13,
	}})
	noOpts := New(Config{Workers: 1, DisableOptionTranslation: true})
	noOpts.table = tb // the same entries, with option translation off
	p := packet.NewTCP(egr, packet.FlagACK, 100, 200, make([]byte, 256))
	p.Opts.TS = &packet.Timestamp{Val: 1, Ecr: 2}
	inline := func(e *Engine, ft packet.FiveTuple) func() {
		return func() {
			p.Tuple = ft // re-arm: ProcessInline rewrites the tuple in place
			e.ProcessInline(p)
		}
	}

	shapes := []struct {
		name string
		fn   func()
	}{
		{"Lookup(hit)", func() { tb.Lookup(hit) }},
		{"Lookup(hit, stale epoch stamp)", func() { stale.seen.Store(^uint64(0)); tb.Lookup(hit) }},
		{"Lookup(miss)", func() { tb.Lookup(miss) }},
		{"ProcessInline(egress)", inline(eng, egr)},
		{"ProcessInline(ingress)", inline(eng, ingr)},
		{"ProcessInline(egress, no option translation)", inline(noOpts, egr)},
		{"ProcessInline(ingress, no option translation)", inline(noOpts, ingr)},
		{"ProcessInline(miss)", inline(eng, miss)},
		{"Hash+Bucket", func() { _ = packet.Bucket(hit.Hash(), 64) }},
	}
	for _, s := range shapes {
		if n := testing.AllocsPerRun(1000, s.fn); n != 0 {
			t.Errorf("%s allocates %.1f/op", s.name, n)
		}
	}
}

// TestReaderPathTakesNoLock holds the reader path to never waiting on a
// writer: with every shard's writer mutex held, Table.Lookup,
// Engine.ProcessInline and Engine.ProcessRawInline, hit and miss, must
// still return.
func TestReaderPathTakesNoLock(t *testing.T) {
	eng := New(Config{Workers: 1, Shards: 8})
	tb := eng.Table()
	p := rawKernelFrames()["tcp_ts_sack_wraparound"]
	tb.Install(p.Tuple, &Entry{Dir: Egress, Rule: rawKernelRule(packet.ProtoTCP)})
	frame := p.Serialize()
	missFrame := packet.NewTCP(testTuple(1), packet.FlagACK, 1, 2, nil).Serialize()

	for i := range tb.shards {
		tb.shards[i].mu.Lock()
	}
	done := make(chan [4]Verdict, 1)
	go func() {
		var v [4]Verdict
		tb.Lookup(p.Tuple)
		tb.Lookup(testTuple(1))
		v[0] = eng.ProcessInline(p.Clone())
		v[1] = eng.ProcessInline(packet.NewTCP(testTuple(1), packet.FlagACK, 1, 2, nil))
		v[2] = eng.ProcessRawInline(frame)
		v[3] = eng.ProcessRawInline(missFrame)
		done <- v
	}()
	var got [4]Verdict
	timedOut := false
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		timedOut = true
	}
	for i := range tb.shards {
		tb.shards[i].mu.Unlock()
	}
	if timedOut {
		<-done
		t.Fatal("reader path did not return within 5s while the writers held every shard lock")
	}
	if want := [4]Verdict{Rewritten, Pass, Rewritten, Pass}; got != want {
		t.Fatalf("verdicts = %v, want %v", got, want)
	}
}
