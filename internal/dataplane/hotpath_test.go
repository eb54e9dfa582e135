package dataplane

import (
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// TestDataplaneLookupZeroAlloc is the dynamic counterpart of the static
// allocfree proof over the dataplane hot-path roots (Table.Lookup and
// Engine.ProcessInline): the lint hot-path coverage test in
// internal/core pins those roots to this test by name. The reader fast
// path — hash, shard, array load, slot probe, epoch stamp, rule
// application — must allocate nothing per packet.
func TestDataplaneLookupZeroAlloc(t *testing.T) {
	eng := New(Config{Workers: 1, Shards: 64})
	tb := eng.Table()
	for i := 0; i < 1000; i++ {
		tb.Install(testTuple(i), testEntry(i))
	}
	hit := testTuple(123)
	miss := testTuple(5000)

	if n := testing.AllocsPerRun(1000, func() { tb.Lookup(hit) }); n != 0 {
		t.Fatalf("Lookup(hit) allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { tb.Lookup(miss) }); n != 0 {
		t.Fatalf("Lookup(miss) allocates %.1f/op", n)
	}

	// The full struct kernel: lookup + rewrite in place.
	egr := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	tb.Install(egr, &Entry{Dir: Egress, Rule: core.Rule{
		To:     packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6},
		AckAdd: -12345, TSEcrAdd: -77,
	}})
	p := packet.NewTCP(egr, packet.FlagACK, 100, 200, make([]byte, 256))
	p.Opts.TS = &packet.Timestamp{Val: 1, Ecr: 2}
	if n := testing.AllocsPerRun(1000, func() {
		p.Tuple = egr // re-arm: ProcessInline rewrites the tuple in place
		eng.ProcessInline(p)
	}); n != 0 {
		t.Fatalf("ProcessInline allocates %.1f/op", n)
	}

	// Hash and Bucket, the bucketing primitives under the path.
	if n := testing.AllocsPerRun(1000, func() { _ = packet.Bucket(hit.Hash(), 64) }); n != 0 {
		t.Fatalf("Hash+Bucket allocates %.1f/op", n)
	}
}
