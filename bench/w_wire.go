package main

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/packet"
)

// wireLoad is a workload on the wall-clock rewrite engine: serialized
// frames in memory, rewritten in place by ProcessRawInline. No socket, no
// simulated link.
type wireLoad struct {
	name            string
	flows           int // installed flows; each also gets a mirror entry
	working         int // frames in one reader's working set
	payload         int // TCP payload bytes per frame
	readers         int
	framesPerReader int
	// writerKeys > 0 adds one goroutine looping Install+Remove over that
	// many extra keys until the readers finish.
	writerKeys int
}

const wireShards = 64

// wireFastpath: smallest frame, cache-resident table, no writers. Parse,
// lookup, the raw kernel and the checksum fold are all there is, and two
// readers expose the shared hit/miss/epoch atomics.
var wireFastpath = wireLoad{
	name: "wire_fastpath", flows: 4096, working: 256, payload: 0,
	readers: 2, framesPerReader: 4 << 20,
}

// wireChurn: writes beside reads on the same table. Copy-on-write
// snapshot cost, snapshot garbage against the reader, lookups that miss
// cache, and a full-size frame to show the raw kernel does not care.
var wireChurn = wireLoad{
	name: "wire_churn", flows: 16384, working: 8192, payload: 1448,
	readers: 1, framesPerReader: 5 << 19, writerKeys: 4096,
}

// wireTuple is flow i's five-tuple (distinct for i < 65536).
func wireTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.MakeAddr(10, 2, byte(i>>8), byte(i)),
		DstIP:   packet.MakeAddr(10, 3, byte(i>>8), byte(i)),
		SrcPort: packet.Port(40000 + i%20000),
		DstPort: 80,
	}
}

// wireEntry alternates directions so both sides of the kernel run,
// options included. With mirror set it is the inverse rewrite, installed
// at the reversed tuple: a frame the engine rewrites flips between the
// flow's tuple and its reverse on successive ops, every op is a hit, and
// the frame's bytes oscillate between exactly two states.
func wireEntry(i int, mirror bool) *dataplane.Entry {
	d := int64(i%9000) + 1
	to := wireTuple(i).Reverse()
	if mirror {
		d, to = -d, wireTuple(i)
	}
	if i%2 == 0 {
		return &dataplane.Entry{Dir: dataplane.Egress, Rule: core.Rule{To: to, AckAdd: -d, TSEcrAdd: -3 * d}}
	}
	return &dataplane.Entry{Dir: dataplane.Ingress, Rule: core.Rule{To: to, SeqAdd: d, TSAdd: 3 * d}}
}

// wireFrame serializes an ACK with timestamps for flow i: 52 bytes with
// no payload, 1500 with 1448.
func wireFrame(i, n, payload int) []byte {
	p := packet.NewTCP(wireTuple(i), packet.FlagACK, uint32(1000*n), uint32(2000*n), make([]byte, payload))
	p.Window = 4096
	p.Opts.TS = &packet.Timestamp{Val: 70000, Ecr: 80000}
	return p.Serialize()
}

type wireRun struct {
	wl     wireLoad
	flows  int // installed flows, after scaling
	frames int // per reader, after scaling
	eng    *dataplane.Engine
	sets   [][][]byte // one working set per reader
	extra  []packet.FiveTuple
	before dataplane.TableStats

	bulkInstallS float64
	notRewritten atomic.Uint64
	rejected     atomic.Uint64
	writerOps    uint64
	removeFailed uint64
}

func (wl wireLoad) prepare(cfg runCfg, tr *tracer) timed {
	// Smoke runs shrink the table and the frame count; the floors keep
	// every shard populated and every working-set frame touched.
	r := &wireRun{wl: wl, flows: int(float64(wl.flows) * cfg.scale), frames: int(float64(wl.framesPerReader) * cfg.scale)}
	if r.flows < wireShards {
		r.flows = wireShards
	}
	if r.frames < wl.working {
		r.frames = wl.working
	}
	sp := tr.begin("dataplane.New", "dataplane")
	r.eng = dataplane.New(dataplane.Config{Workers: 1, Shards: wireShards})
	tr.end(sp)

	sp = tr.begin("Table.Install x flows", "dataplane")
	t0 := time.Now()
	tab := r.eng.Table()
	for i := 0; i < r.flows; i++ {
		tab.Install(wireTuple(i), wireEntry(i, false))
		tab.Install(wireTuple(i).Reverse(), wireEntry(i, true))
	}
	r.bulkInstallS = time.Since(t0).Seconds()
	tr.end(sp)

	// Frames are drawn uniformly over the installed flows by the seed.
	sp = tr.begin("frames", "bench")
	for d := 0; d < wl.readers; d++ {
		rng := rand.New(rand.NewSource(cfg.seed + int64(d)))
		set := make([][]byte, wl.working)
		for n := range set {
			set[n] = wireFrame(rng.Intn(r.flows), n, wl.payload)
		}
		r.sets = append(r.sets, set)
	}
	for k := 0; k < wl.writerKeys; k++ {
		r.extra = append(r.extra, wireTuple(r.flows+k))
	}
	tr.end(sp)
	r.before = tab.Stats()
	return r
}

func (r *wireRun) threads() int {
	if r.wl.writerKeys > 0 {
		return r.wl.readers + 1
	}
	return r.wl.readers
}

// read is one reader's closed loop: the next frame is offered when the
// previous one has been rewritten.
func (r *wireRun) read(set [][]byte, tr *tracer) {
	const batch = 1024
	var bad, rejected uint64
	for done := 0; done < r.frames; done += batch {
		n := batch
		if r.frames-done < n {
			n = r.frames - done
		}
		sp := tr.begin("ProcessRawInline x1024", "dataplane")
		for i := done; i < done+n; i++ {
			v := r.eng.ProcessRawInline(set[i%len(set)])
			if v != dataplane.Rewritten {
				bad++
				if v == dataplane.Rejected {
					rejected++
				}
			}
		}
		tr.end(sp)
	}
	r.notRewritten.Add(bad)
	r.rejected.Add(rejected)
}

// write loops Install+Remove over the extra keys until told to stop.
func (r *wireRun) write(stop *atomic.Bool, tr *tracer) {
	tab := r.eng.Table()
	for k := 0; !stop.Load(); k++ {
		i := r.flows + k%len(r.extra)
		key := r.extra[k%len(r.extra)]
		sp := tr.begin("Table.Install", "dataplane")
		tab.Install(key, wireEntry(i, false))
		tr.end(sp)
		sp = tr.begin("Table.Remove", "dataplane")
		ok := tab.Remove(key)
		tr.end(sp)
		if !ok {
			r.removeFailed++
		}
		r.writerOps += 2
	}
}

// window starts every goroutine parked on a gate, starts the clock, and
// opens the gate: goroutine start-up is not timed and allocates nothing
// inside the measured interval.
func (r *wireRun) window(tr *tracer, begin func()) {
	var gate, readers, writer sync.WaitGroup
	var stop atomic.Bool
	gate.Add(1)
	if r.wl.writerKeys > 0 {
		wtr := tr.fork()
		writer.Add(1)
		go func() {
			defer writer.Done()
			gate.Wait()
			r.write(&stop, wtr)
		}()
	}
	for _, set := range r.sets {
		set, rtr := set, tr.fork()
		readers.Add(1)
		go func() {
			defer readers.Done()
			gate.Wait()
			r.read(set, rtr)
		}()
	}
	begin()
	gate.Done()
	readers.Wait()
	stop.Store(true)
	writer.Wait()
}

func (r *wireRun) finish(o *outcome) {
	frames := float64(r.frames * r.wl.readers)
	frameLen := len(r.sets[0][0])
	o.pkts = frames
	o.goodputGbps = frames * float64(frameLen) * 8 / o.wallS / 1e9
	st := r.eng.Table().Stats()
	o.exact["dataplane.hits"] = float64(st.Hits - r.before.Hits)
	o.exact["dataplane.misses"] = float64(st.Misses - r.before.Misses)
	o.exact["dataplane.max_shard_entries"] = float64(st.MaxShardEntries)
	o.exact["dataplane.rejected"] = float64(r.rejected.Load())
	o.host["dataplane.bulk_install_s"] = r.bulkInstallS
	if r.wl.writerKeys > 0 {
		o.host["installs_per_s"] = float64(r.writerOps) / o.wallS
	}

	// Operations are frames (verdict must be Rewritten: every frame
	// belongs to an installed flow) and control ops (Remove of a key just
	// installed must find it).
	o.attempted = int64(frames) + int64(r.writerOps)
	o.failed = int64(r.notRewritten.Load()) + int64(r.removeFailed)
	// Every frame, after any number of in-place rewrites, must still be a
	// canonical serialization: parse it and demand byte identity with a
	// from-scratch re-serialize, which re-derives both checksums.
	stale := 0
	for _, set := range r.sets {
		for _, f := range set {
			p, err := packet.Parse(f)
			if err != nil || !bytes.Equal(p.Serialize(), f) {
				stale++
			}
		}
	}
	if stale > 0 {
		o.errorf("%s: %d working-set frames are no longer canonical", r.wl.name, stale)
	}
	if n := st.Entries; n != 2*r.flows {
		o.errorf("%s: table holds %d entries after the run, want %d", r.wl.name, n, 2*r.flows)
	}
}
