package dataplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/packet"
)

// RawDiffConfig parameterizes one raw-vs-struct equivalence run.
type RawDiffConfig struct {
	// Seed drives every random choice (option ablations, payload
	// lengths, corruption sites); the same seed replays the same run.
	Seed int64
	// Flows is the stable flow count. Flows cycle through the option
	// ablation variants, a fraction are UDP, and a fraction have no
	// entry installed (the Pass path must leave bytes untouched too).
	Flows int
	// PacketsPerFlow is how many frames each flow sends.
	PacketsPerFlow int
	// Malformed is how many corrupted frames are interleaved with the
	// traffic. Every one must come back byte-identical and be counted
	// Rejected.
	Malformed int
	// Churners/ChurnOps run a concurrent control plane over keys
	// disjoint from every flow — half of them chosen to share a probe
	// chain with an installed flow (churnKeys): no fed frame matches a
	// churned entry, so the byte-level expectation stays deterministic
	// while the slot stores, tombstones and rebuilds still race the raw
	// readers, in the chains they read, under -race.
	Churners int
	ChurnOps int
	// Engine configures the engine under test.
	Engine Config
}

func (c *RawDiffConfig) fillDefaults() {
	if c.Flows <= 0 {
		c.Flows = 192
	}
	if c.PacketsPerFlow <= 0 {
		c.PacketsPerFlow = 8
	}
	if c.Malformed < 0 {
		c.Malformed = 0
	}
	if c.Churners <= 0 {
		c.Churners = 4
	}
	if c.ChurnOps <= 0 {
		c.ChurnOps = 300
	}
}

// rawFlowTuple is raw flow i's five-tuple: flowTuple's address plan, but
// every fifth flow is UDP so the transport dispatch in both kernels is
// diffed, not just the TCP arm.
func rawFlowTuple(i int) packet.FiveTuple {
	ft := flowTuple(i)
	if i%5 == 4 {
		ft.Proto = packet.ProtoUDP
	}
	return ft
}

// rawStableEntry is raw flow i's rewrite: stableEntry's delta plan with
// the To tuple's protocol matched to the flow.
func rawStableEntry(i int) *Entry {
	e := stableEntry(i)
	e.Rule.To.Proto = rawFlowTuple(i).Proto
	return e
}

// rawFlowHasEntry reports whether flow i gets an entry installed; every
// seventh flow is left unmatched to diff the Pass path.
func rawFlowHasEntry(i int) bool { return i%7 != 6 }

// rawFlowPacket builds frame k of flow i, cycling option ablations and
// payload lengths (including odd ones, so the checksum fold crosses the
// trailing-byte padding case) off the run's rng.
func rawFlowPacket(rng *rand.Rand, i, k int) *packet.Packet {
	ft := rawFlowTuple(i)
	payload := make([]byte, rng.Intn(8))
	for b := range payload {
		payload[b] = byte(rng.Intn(256))
	}
	if ft.Proto == packet.ProtoUDP {
		return packet.NewUDP(ft, payload)
	}
	p := packet.NewTCP(ft, packet.FlagACK, uint32(1000*i+10*k), uint32(500+k), payload)
	p.Window = uint16(1024 + k)
	switch (i + k) % 5 {
	case 0: // no options at all
	case 1: // timestamps only
		p.Opts.TS = &packet.Timestamp{Val: uint32(70000 + k), Ecr: uint32(80000 + k)}
	case 2: // SACK blocks only
		n := 1 + rng.Intn(3)
		for s := 0; s < n; s++ {
			base := uint32(5000*i + 100*s)
			p.Opts.SACK = append(p.Opts.SACK, packet.SACKBlock{Start: base, End: base + 50})
		}
	case 3: // timestamps + SACK + Dysco tag
		p.Opts.TS = &packet.Timestamp{Val: uint32(90000 + k), Ecr: uint32(91000 + k)}
		p.Opts.SACK = []packet.SACKBlock{{Start: uint32(6000 * i), End: uint32(6000*i + 77)}}
		p.Opts.HasDyscoTag = true
		p.Opts.DyscoTag = uint32(i)
	case 4: // SYN-shaped: handshake options, no ACK flag
		p.Flags = packet.FlagSYN
		p.Ack = 0
		p.Opts.MSS = 1460
		p.Opts.WScale = int8(rng.Intn(15))
		p.Opts.SACKPermitted = true
	}
	return p
}

// corruptFrame mangles a canonical frame so ParseView must reject it,
// picking one corruption site off the rng. The result is never a valid
// frame: the oracle demands it come back byte-identical.
func corruptFrame(rng *rand.Rand, frame []byte) []byte {
	b := append([]byte(nil), frame...)
	switch rng.Intn(6) {
	case 0: // truncate mid-frame
		b = b[:rng.Intn(len(b))]
	case 1: // IP version/IHL byte
		b[0] = 0x46
	case 2: // total length disagrees with the buffer
		b[packet.OffIPTotalLen]++
	case 3: // zero option length (walk cannot advance)
		hasOpts := b[packet.OffIPProto] == byte(packet.ProtoTCP) &&
			int(b[packet.IPHeaderLen+packet.OffTCPDataOff]>>4)*4 > packet.TCPFixedLen
		if hasOpts {
			b[packet.IPHeaderLen+packet.OffTCPOptions] = packet.OptDyscoTag
			b[packet.IPHeaderLen+packet.OffTCPOptions+1] = 0
		} else {
			b = b[:packet.IPHeaderLen/2]
		}
	case 4: // TCP data offset past the frame end
		if b[packet.OffIPProto] == byte(packet.ProtoTCP) {
			b[packet.IPHeaderLen+packet.OffTCPDataOff] = 0xf0
		} else {
			b[packet.IPHeaderLen+packet.OffUDPLen]++
		}
	case 5: // trailing garbage after the IP total length
		b = append(b, 0xcc)
	}
	return b
}

// RunRawDiff replays one identical frame sequence through the
// single-threaded struct pipeline (Parse → Ref.Process → Serialize) and
// through the engine's zero-copy raw path (FeedRaw → in-place rewrite),
// and returns an error on the first byte divergence. The struct pipeline
// recomputes every checksum from scratch during Serialize while the raw
// path folds RFC 1624 updates into the stored checksums, so byte equality
// is exactly the claim that incremental == full recompute on top of the
// claim that the two kernels implement the same §3.4/§4.2 translation.
// Corrupted frames must come back untouched and counted Rejected. Run it
// under -race: concurrent churners store into, tombstone and rebuild
// the shards' slot arrays while the raw readers run.
func RunRawDiff(cfg RawDiffConfig) error {
	cfg.fillDefaults()
	eng := New(cfg.Engine)
	ref := NewRef(cfg.Engine)

	var stable []packet.FiveTuple
	for i := 0; i < cfg.Flows; i++ {
		if !rawFlowHasEntry(i) {
			continue
		}
		stable = append(stable, rawFlowTuple(i))
		eng.table.Install(rawFlowTuple(i), rawStableEntry(i))
		ref.Install(rawFlowTuple(i), rawStableEntry(i))
	}
	// Each churner owns rawChurnKeys of the churn keys.
	const rawChurnKeys = 64
	churn := churnKeys(eng.table, rawChurnKeys*cfg.Churners, stable)

	// Build the frame sequence and its expected bytes. Each slot builds
	// the packet once, serializes it twice: one copy is pushed through
	// the struct pipeline now (computing the expected bytes), the other
	// is the live buffer the engine rewrites in place.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var feed, want [][]byte
	wantRewritten, wantRejected := uint64(0), uint64(0)
	addFlow := func(i, k int) {
		p := rawFlowPacket(rng, i, k)
		frame := p.Serialize()
		live := append([]byte(nil), frame...)
		if ref.Process(p) == Rewritten {
			wantRewritten++
		}
		feed = append(feed, live)
		want = append(want, p.Serialize())
	}
	addMalformed := func() {
		base := rawFlowPacket(rng, rng.Intn(cfg.Flows), rng.Intn(cfg.PacketsPerFlow))
		bad := corruptFrame(rng, base.Serialize())
		if _, err := packet.ParseView(bad); err == nil {
			// Corruption happened to stay valid — never expected; fail
			// loudly rather than feed an unaccounted frame.
			panic(fmt.Sprintf("corruptFrame produced a valid frame: %x", bad))
		}
		wantRejected++
		feed = append(feed, bad)
		want = append(want, append([]byte(nil), bad...))
	}
	malformedEvery := 0
	if cfg.Malformed > 0 {
		malformedEvery = 1 + cfg.Flows*cfg.PacketsPerFlow/cfg.Malformed
	}
	slot := 0
	for k := 0; k < cfg.PacketsPerFlow; k++ {
		for i := 0; i < cfg.Flows; i++ {
			addFlow(i, k)
			slot++
			if malformedEvery > 0 && slot%malformedEvery == 0 {
				addMalformed()
			}
		}
	}

	eng.Start()

	// Concurrent control plane over keys disjoint from every fed frame:
	// the churn exercises the slot publication protocol against the raw
	// readers without making any fed frame's expected bytes racy.
	var churnWG sync.WaitGroup
	for c := 0; c < cfg.Churners; c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			crng := rand.New(rand.NewSource(cfg.Seed + 1 + int64(c)))
			for op := 0; op < cfg.ChurnOps; op++ {
				key := churn[c*rawChurnKeys+op%rawChurnKeys]
				if crng.Intn(3) == 0 {
					eng.table.Remove(key)
					continue
				}
				eng.table.Install(key, churnRule(key, uint64(op%churnVersionMax+1)))
			}
		}(c)
	}

	// Single feeder (the SPSC producer); spin-yield on full rings.
	for _, frame := range feed {
		for !eng.FeedRaw(frame) {
			runtime.Gosched()
		}
	}
	churnWG.Wait()
	eng.Stop()

	for i := range feed {
		if !bytes.Equal(feed[i], want[i]) {
			return fmt.Errorf("frame %d diverged from struct pipeline:\n  raw    %x\n  struct %x",
				i, feed[i], want[i])
		}
	}
	st := eng.Stats()
	if st.Rewritten != wantRewritten || st.Rejected != wantRejected {
		return fmt.Errorf("verdict counts: rewritten %d (want %d), rejected %d (want %d)",
			st.Rewritten, wantRewritten, st.Rejected, wantRejected)
	}
	if got, wantN := st.Processed, uint64(len(feed)); got != wantN {
		return fmt.Errorf("processed %d frames, fed %d", got, wantN)
	}
	return nil
}
