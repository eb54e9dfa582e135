package dataplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// Ref is the single-threaded reference implementation of the engine's
// semantics: one plain map, the same Entry type, the same core.Rule
// kernel, zero concurrency. The differential oracle pushes every frame
// through Parse → Ref.Process → Serialize and through the concurrent
// engine and demands identical bytes — Ref is deliberately too simple to
// be wrong, which is what makes the comparison evidence.
type Ref struct {
	entries                  map[packet.FiveTuple]*Entry
	disableOptionTranslation bool
}

// NewRef builds an empty reference table with the engine config's
// translation setting.
func NewRef(cfg Config) *Ref {
	return &Ref{
		entries:                  map[packet.FiveTuple]*Entry{},
		disableOptionTranslation: cfg.DisableOptionTranslation,
	}
}

// Install publishes e as the rewrite for ft.
func (r *Ref) Install(ft packet.FiveTuple, e *Entry) { r.entries[ft] = e }

// Remove deletes the entry for ft, reporting whether one existed.
func (r *Ref) Remove(ft packet.FiveTuple) bool {
	if _, ok := r.entries[ft]; !ok {
		return false
	}
	delete(r.entries, ft)
	return true
}

// Len returns the installed entry count.
func (r *Ref) Len() int { return len(r.entries) }

// Process rewrites p in place exactly as Engine.ProcessInline would.
func (r *Ref) Process(p *packet.Packet) Verdict {
	e := r.entries[p.Tuple]
	if e == nil {
		return Pass
	}
	if e.Dir == Egress {
		e.ApplyEgress(p, !r.disableOptionTranslation)
	} else {
		e.ApplyIngress(p, !r.disableOptionTranslation)
	}
	return Rewritten
}

// diffConfig parameterizes one differential-oracle run.
type diffConfig struct {
	// Seed drives every random choice (option ablations, payload
	// lengths, corruption sites, churn schedules).
	Seed int64
	// Flows is the stable flow count: their entries are installed before
	// the engine starts and never touched by churn, so each of their
	// frames has exactly one correct outcome. Flows cycle through the
	// option ablation variants, every fifth is UDP, and every seventh
	// has no entry (the Pass path must leave bytes untouched too).
	Flows int
	// PacketsPerFlow is how many frames each stable flow sends.
	PacketsPerFlow int
	// Malformed is how many corrupted frames are interleaved with the
	// traffic. Every one must come back byte-identical and be counted
	// Rejected.
	Malformed int
	// ChurnKeys is the count of keys the churners install and remove
	// while traffic runs — half of them chosen to share a probe chain
	// with a stable flow (churnKeys). Frames to these keys are fed too:
	// they race the control plane by design and must come back untouched
	// or as the rewrite of exactly one installed version.
	ChurnKeys int
	// Churners is the concurrent control-plane goroutine count and
	// ChurnOps the install/remove operation count of each.
	Churners, ChurnOps int
	// Engine configures the engine under test.
	Engine Config
}

// flowTuple is stable flow i's five-tuple; every fifth flow is UDP so
// the transport dispatch in both kernels is diffed, not just the TCP arm.
func flowTuple(i int) packet.FiveTuple {
	ft := packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.MakeAddr(10, 0, byte(i>>8), byte(i)),
		DstIP:   packet.MakeAddr(10, 1, byte(i>>8), byte(i)),
		SrcPort: packet.Port(40000 + i%20000),
		DstPort: 80,
	}
	if i%5 == 4 {
		ft.Proto = packet.ProtoUDP
	}
	return ft
}

// stableEntry is stable flow i's rewrite, alternating directions so both
// sides of the kernel are diffed.
func stableEntry(i int) *Entry {
	d := int64(i%9000) + 1
	to := packet.FiveTuple{
		Proto:   flowTuple(i).Proto,
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

// flowHasEntry reports whether flow i gets an entry installed; every
// seventh flow is left unmatched to diff the Pass path.
func flowHasEntry(i int) bool { return i%7 != 6 }

// flowPacket builds frame k of flow i, cycling option ablations and
// payload lengths (including odd ones, so the checksum fold crosses the
// trailing-byte padding case) off the run's rng.
func flowPacket(rng *rand.Rand, i, k int) *packet.Packet {
	ft := flowTuple(i)
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
	case 4: // SYN-shaped: handshake options, no ACK flag; the 3-byte
		// window scale leaves the timestamp at an odd offset
		p.Flags = packet.FlagSYN
		p.Ack = 0
		p.Opts.MSS = 1460
		p.Opts.WScale = int8(rng.Intn(15))
		p.Opts.SACKPermitted = true
		p.Opts.TS = &packet.Timestamp{Val: uint32(95000 + k), Ecr: 0}
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

// churnVersionMax bounds churn rule versions so a version survives the
// round trip through the rewritten frame's port and seq fields.
const churnVersionMax = 30000

// churnRule is version v of a churn key's entry. Every field is a
// function of (key, v), so a reader that observed a mix of two versions
// — a torn entry — produces a frame that is the rewrite of neither.
// Immutable entries make that impossible; this rule is how the oracle
// would catch it if the protocol were broken.
func churnRule(key packet.FiveTuple, v uint64) *Entry {
	to := key.Reverse()
	to.DstPort = packet.Port(10000 + v)
	return &Entry{Dir: Ingress, Rule: core.Rule{To: to, SeqAdd: int64(v), TSAdd: 3 * int64(v)}}
}

// checkChurnFrame applies the oracle's relation to one frame that raced
// the control plane: got must be the fed bytes untouched (Pass), or a
// frame whose checksums verify and that is byte-for-byte the struct
// kernel's rewrite of fed by the one churnRule version its seq delta
// names. A rewrite by a torn or half-installed entry satisfies neither.
func checkChurnFrame(fed, got []byte, noOpts bool) (rewritten bool, err error) {
	if bytes.Equal(got, fed) {
		return false, nil
	}
	g, err := packet.Parse(got) // re-verifies the IP and transport checksums
	if err != nil {
		return false, fmt.Errorf("neither untouched nor a valid frame: %w", err)
	}
	p, err := packet.Parse(fed)
	if err != nil {
		return false, err
	}
	v := int64(packet.SeqDiff(p.Seq, g.Seq))
	if v < 1 || v > churnVersionMax {
		return false, fmt.Errorf("modified by no installed version (seq delta %d):\n  got %x\n  fed %x", v, got, fed)
	}
	churnRule(p.Tuple, uint64(v)).ApplyIngress(p, !noOpts)
	if want := p.Serialize(); !bytes.Equal(got, want) {
		return false, fmt.Errorf("torn entry: seq delta says version %d:\n  got  %x\n  want %x", v, got, want)
	}
	return true, nil
}

// fedFrame is one frame of a run and what the oracle demands of it.
type fedFrame struct {
	live []byte // the buffer fed to the engine, rewritten in place
	// want is the only acceptable outcome of a stable or malformed
	// frame, and the fed bytes (the Pass outcome) of a churn frame.
	want  []byte
	churn bool
}

// runDiff feeds one frame sequence through the engine's rings (FeedRaw →
// in-place rewrite) while churners install and remove entries, and
// returns an error on the first divergence from the single-threaded
// struct pipeline (Parse → Ref.Process → Serialize). That pipeline
// recomputes every checksum from scratch while the raw path folds
// RFC 1624 updates into the stored ones, so byte equality on the stable
// flows is exactly the claim that incremental == full recompute on top
// of the claim that the two kernels implement the same §3.4/§4.2
// translation. Corrupted frames must come back untouched and counted
// Rejected; frames to the churned keys must satisfy checkChurnFrame; the
// engine's verdict counts must be exact. Run it under -race: the race
// detector checks the memory protocol (slot stores, tombstones and
// rebuilds under the readers) while the oracle checks the bytes.
func runDiff(cfg diffConfig) error {
	eng := New(cfg.Engine)
	ref := NewRef(cfg.Engine)

	var stable []packet.FiveTuple
	for i := 0; i < cfg.Flows; i++ {
		if !flowHasEntry(i) {
			continue
		}
		stable = append(stable, flowTuple(i))
		eng.table.Install(flowTuple(i), stableEntry(i))
		ref.Install(flowTuple(i), stableEntry(i))
	}
	churn := churnKeys(eng.table, cfg.ChurnKeys, stable)
	// Half the churn keys start installed, so frames meet both outcomes
	// however the churners are scheduled against the feeder.
	for j := 0; j < len(churn); j += 2 {
		eng.table.Install(churn[j], churnRule(churn[j], churnVersionMax))
	}

	// Build the frame sequence. A stable slot builds its packet once and
	// serializes it twice: one copy goes through the struct pipeline now
	// (computing the expected bytes), the other is the live buffer.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var feed []fedFrame
	var wantRewritten, wantRejected uint64
	addFlow := func(i, k int) {
		p := flowPacket(rng, i, k)
		live := p.Serialize()
		if ref.Process(p) == Rewritten {
			wantRewritten++
		}
		feed = append(feed, fedFrame{live: live, want: p.Serialize()})
	}
	addMalformed := func() {
		base := flowPacket(rng, rng.Intn(cfg.Flows), rng.Intn(cfg.PacketsPerFlow))
		bad := corruptFrame(rng, base.Serialize())
		if _, err := packet.ParseView(bad); err == nil {
			// Never expected; fail loudly rather than feed an
			// unaccounted frame.
			panic(fmt.Sprintf("corruptFrame produced a valid frame: %x", bad))
		}
		wantRejected++
		feed = append(feed, fedFrame{live: bad, want: append([]byte(nil), bad...)})
	}
	addChurn := func(j int) {
		p := packet.NewTCP(churn[j], packet.FlagACK, uint32(100000+j), uint32(200000+j), []byte("churn"))
		p.Window = 512
		p.Opts.TS = &packet.Timestamp{Val: 90000, Ecr: 91000}
		feed = append(feed, fedFrame{live: p.Serialize(), want: p.Serialize(), churn: true})
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
			if cfg.ChurnKeys > 0 && rng.Intn(4) == 0 {
				addChurn(rng.Intn(cfg.ChurnKeys))
			}
		}
	}

	eng.Start()

	// Concurrent control plane over the fed churn keys. Every
	// (churner, op) pair installs its own version, and op k waits until
	// k/ChurnOps of the frames are fed, so the writes are spread over the
	// whole run however fast the feeder is.
	var churnWG sync.WaitGroup
	var fed atomic.Int64 // frames fed so far
	for c := 0; c < cfg.Churners && cfg.ChurnKeys > 0; c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			crng := rand.New(rand.NewSource(cfg.Seed + 1 + int64(c)))
			for op := 0; op < cfg.ChurnOps; op++ {
				for fed.Load()*int64(cfg.ChurnOps) < int64(op*len(feed)) {
					runtime.Gosched()
				}
				key := churn[crng.Intn(len(churn))]
				if crng.Intn(3) == 0 {
					eng.table.Remove(key)
					continue
				}
				eng.table.Install(key, churnRule(key, uint64(op*cfg.Churners+c+1)))
			}
		}(c)
	}

	// Single feeder (the SPSC producer); spin-yield on full rings.
	for _, f := range feed {
		for !eng.FeedRaw(f.live) {
			runtime.Gosched()
		}
		fed.Add(1)
	}
	churnWG.Wait()
	eng.Stop()

	var churnRewritten, churnPassed uint64
	for i, f := range feed {
		if !f.churn {
			if !bytes.Equal(f.live, f.want) {
				return fmt.Errorf("frame %d diverged from struct pipeline:\n  raw    %x\n  struct %x", i, f.live, f.want)
			}
			continue
		}
		rewritten, err := checkChurnFrame(f.want, f.live, cfg.Engine.DisableOptionTranslation)
		if err != nil {
			return fmt.Errorf("frame %d (churn key): %w", i, err)
		}
		if rewritten {
			churnRewritten++
		} else {
			churnPassed++
		}
	}
	if cfg.ChurnKeys > 0 && (churnRewritten == 0 || churnPassed == 0) {
		return fmt.Errorf("vacuous churn: %d frames rewritten, %d passed", churnRewritten, churnPassed)
	}
	st := eng.Stats()
	if st.Rewritten != wantRewritten+churnRewritten || st.Rejected != wantRejected {
		return fmt.Errorf("verdict counts: rewritten %d (want %d), rejected %d (want %d)",
			st.Rewritten, wantRewritten+churnRewritten, st.Rejected, wantRejected)
	}
	if got, want := st.Processed, uint64(len(feed)); got != want {
		return fmt.Errorf("processed %d frames, fed %d", got, want)
	}
	return nil
}

// TestEngineMatchesRefSequential is the deterministic half of the
// differential oracle: no churn, so every frame has exactly one correct
// outcome.
func TestEngineMatchesRefSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		if err := runDiff(diffConfig{
			Seed: 42, Flows: 128, PacketsPerFlow: 6, Malformed: 20,
			Engine: Config{Workers: workers, Shards: 16, RingSize: 256, Batch: 8},
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestEngineDiffUnderChurn is the concurrent half: stable flows must
// still match Ref exactly while churners install/remove entries, and
// frames racing them must never observe a torn entry. Run under -race in
// CI.
func TestEngineDiffUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		if err := runDiff(diffConfig{
			Seed: seed, Flows: 96, PacketsPerFlow: 8, Malformed: 40,
			ChurnKeys: 48, Churners: 3, ChurnOps: 600,
			Engine: Config{Workers: 4, Shards: 8, RingSize: 128, Batch: 16},
		}); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// TestEngineDiffOptionTranslationOff diffs the ablated kernel too.
func TestEngineDiffOptionTranslationOff(t *testing.T) {
	if err := runDiff(diffConfig{
		Seed: 9, Flows: 64, PacketsPerFlow: 4,
		ChurnKeys: 16, Churners: 4, ChurnOps: 400,
		Engine: Config{Workers: 2, Shards: 4, DisableOptionTranslation: true},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRawDiffGrid runs the oracle across seeds × worker counts ×
// option-translation settings, churning the fed keys throughout.
func TestRawDiffGrid(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, workers := range []int{1, 2, 4} {
			for _, noOpts := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/workers=%d/noOpts=%v", seed, workers, noOpts)
				t.Run(name, func(t *testing.T) {
					if err := runDiff(diffConfig{
						Seed: seed, Flows: 96, PacketsPerFlow: 6, Malformed: 40,
						ChurnKeys: 48, Churners: 4, ChurnOps: 300,
						Engine: Config{Workers: workers, Shards: 8, RingSize: 128,
							DisableOptionTranslation: noOpts},
					}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestEngineDiffRejectsBadChurnFrames proves the churn relation can
// fail: hand-built outcomes no single installed version could have
// produced must each be rejected by the check that exists for them, and
// the two legitimate outcomes accepted.
func TestEngineDiffRejectsBadChurnFrames(t *testing.T) {
	key := churnKey(3)
	p := packet.NewTCP(key, packet.FlagACK, 100003, 200003, []byte("churn"))
	p.Opts.TS = &packet.Timestamp{Val: 90000, Ecr: 91000}
	fed := p.Serialize()
	// mutated returns fed after edit, re-serialized so that both
	// checksums are valid again.
	mutated := func(edit func(*packet.Packet)) []byte {
		q, err := packet.Parse(fed)
		if err != nil {
			t.Fatal(err)
		}
		edit(q)
		return q.Serialize()
	}
	flipped := func(b []byte, off int) []byte {
		b = append([]byte(nil), b...)
		b[off] ^= 0x01
		return b
	}
	v7 := mutated(func(q *packet.Packet) { churnRule(key, 7).ApplyIngress(q, true) })

	if rewritten, err := checkChurnFrame(fed, fed, false); rewritten || err != nil {
		t.Fatalf("untouched frame: rewritten=%v err=%v", rewritten, err)
	}
	if rewritten, err := checkChurnFrame(fed, v7, false); !rewritten || err != nil {
		t.Fatalf("version-7 rewrite: rewritten=%v err=%v", rewritten, err)
	}
	for _, c := range []struct {
		name    string
		got     []byte
		noOpts  bool
		wantErr string
	}{
		{name: "torn entry: tuple of version 7, deltas of version 8", wantErr: "torn entry",
			got: mutated(func(q *packet.Packet) {
				churnRule(key, 8).ApplyIngress(q, true)
				q.Tuple = churnRule(key, 7).To
			})},
		{name: "timestamps translated with option translation off", wantErr: "torn entry",
			got: v7, noOpts: true},
		{name: "rewrite with a corrupted transport checksum", wantErr: "checksum",
			got: flipped(v7, packet.IPHeaderLen+packet.OffTCPCsum)},
		{name: "passed frame with one flipped byte", wantErr: "checksum",
			got: flipped(fed, len(fed)-1)},
		{name: "passed frame modified under valid checksums", wantErr: "no installed version",
			got: mutated(func(q *packet.Packet) { q.Window++ })},
	} {
		_, err := checkChurnFrame(fed, c.got, c.noOpts)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.wantErr)
		}
	}
}

// TestChurnKeysCollide: the oracle's churn must land in the stable
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
