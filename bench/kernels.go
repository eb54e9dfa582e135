package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Isolated kernels: timed calls into each layer's public functions on the
// workload's own inputs, at least kernelCalls calls, the clock read once
// per kernelBatch. They say what a layer costs with nothing around it;
// the profile shares say what it costs in the run.
const (
	kernelCalls = 1 << 20
	kernelBatch = 64
)

// kernelTimer times kernels: calls is kernelCalls at scale 1, less in
// smoke runs.
type kernelTimer struct{ calls int }

// time runs fn, which makes kernelBatch calls of the code under test,
// until at least k.calls calls have run, reading the clock once per
// batch. It returns nanoseconds per call.
func (k kernelTimer) time(fn func()) float64 {
	fn() // warm caches and lazy set-up
	var total time.Duration
	done := 0
	for done == 0 || done < k.calls {
		t := time.Now()
		fn()
		total += time.Since(t)
		done += kernelBatch
	}
	return float64(total.Nanoseconds()) / float64(done)
}

// sink keeps results alive so the compiler cannot drop the measured call.
var sink uint64

// simKernels times the layers a sim workload runs on.
func simKernels(k kernelTimer, pendingMax int, m map[string]float64) {
	// Event heap: Schedule+Run of no-op events on a heap as deep as the
	// workload's own.
	eng := sim.NewEngine(1)
	noop := func() {}
	for i := 0; i < pendingMax; i++ {
		eng.Schedule(time.Hour+time.Duration(i), noop)
	}
	m["sim.kernel_ns_per_event"] = k.time(func() {
		for i := 0; i < kernelBatch; i++ {
			eng.Schedule(time.Duration(i), noop)
		}
		eng.Run(eng.Now() + kernelBatch)
	})

	// Rewrite rule, both directions, timestamps and SACK translated.
	a := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: packet.MakeAddr(10, 0, 0, 1), DstIP: packet.MakeAddr(10, 0, 0, 2), SrcPort: 40000, DstPort: 80}
	out := core.Rule{To: a.Reverse(), AckAdd: 1000, TSEcrAdd: 7, WinFrom: 7, WinTo: 5}
	in := core.Rule{To: a, SeqAdd: -1000, TSAdd: -7}
	p := packet.NewTCP(a, packet.FlagACK, 1, 2, nil)
	p.Window = 4096
	p.Opts.TS = &packet.Timestamp{Val: 70000, Ecr: 80000}
	p.Opts.SACK = []packet.SACKBlock{{Start: 10, End: 20}, {Start: 30, End: 40}}
	m["core.kernel_rule_ns"] = k.time(func() {
		for i := 0; i < kernelBatch; i++ {
			out.ApplyEgress(p, true)
			in.ApplyIngress(p, true)
		}
	})

	// Event emission into storage: a fresh recorder every 64k events
	// keeps the log bounded while every emit takes the storing path.
	const perRecorder = 1 << 16
	var rec *obs.Recorder
	emitted := perRecorder
	m["obs.kernel_emit_ns"] = k.time(func() {
		if emitted >= perRecorder {
			rec = obs.NewHub(eng).Recorder("kernel")
			emitted = 0
		}
		for i := 0; i < kernelBatch; i++ {
			rec.Emit(obs.Event{Kind: obs.KRewrite, Sess: a, Dir: "egress", Bytes: 1500})
		}
		emitted += kernelBatch
	})
}

// packetKernels times the codec on one frame of the workload's size.
func packetKernels(k kernelTimer, frame []byte, m map[string]float64) {
	m["packet.kernel_parseview_ns"] = k.time(func() {
		for i := 0; i < kernelBatch; i++ {
			v, err := packet.ParseView(frame)
			if err != nil {
				panic(err)
			}
			sink += uint64(v.Len())
		}
	})
	p, err := packet.Parse(frame)
	if err != nil {
		panic(err)
	}
	m["packet.kernel_parse_ns"] = k.time(func() {
		for i := 0; i < kernelBatch; i++ {
			q, err := packet.Parse(frame)
			if err != nil {
				panic(err)
			}
			sink += uint64(q.Seq)
		}
	})
	scratch := make([]byte, 0, len(frame))
	m["packet.kernel_append_ns"] = k.time(func() {
		for i := 0; i < kernelBatch; i++ {
			scratch = p.AppendTo(scratch[:0])
		}
	})
	ft := p.Tuple
	m["packet.kernel_hash_ns"] = k.time(func() {
		for i := 0; i < kernelBatch; i++ {
			ft.SrcPort++
			sink += ft.Hash()
		}
	})
	perFrame := k.time(func() {
		for i := 0; i < kernelBatch; i++ {
			sink += uint64(packet.Checksum(frame))
		}
	})
	m["packet.kernel_checksum_ns_per_kb"] = perFrame * 1024 / float64(len(frame))
}

// simFrame is the frame the sim workloads' packets would be on a wire: a
// full-size data segment with timestamps.
func simFrame() []byte { return wireFrame(0, 1, 1448) }

// wireKernels takes the wire path apart on the workload's own table and
// frames: parse, lookup, raw kernel, the glue between them, the rings,
// the struct oracle path, and single control operations.
func wireKernels(k kernelTimer, wl wireLoad, cfg runCfg, m map[string]float64) {
	r := wl.prepare(cfg, nil).(*wireRun)
	tab := r.eng.Table()
	set := r.sets[0]
	n := len(set)

	// What one frame costs inline with one reader and nothing else.
	i := 0
	inline := k.time(func() {
		for k := 0; k < kernelBatch; k++ {
			if r.eng.ProcessRawInline(set[i%n]) != dataplane.Rewritten {
				panic("wire kernel: frame not rewritten")
			}
			i++
		}
	})
	m["dataplane.inline_ns_per_frame_1r"] = inline

	// Lookup alone, over the same flows in the same order.
	tuples := make([]packet.FiveTuple, n)
	views := make([]packet.View, n)
	for k, f := range set {
		v, err := packet.ParseView(f)
		if err != nil {
			panic(err)
		}
		views[k], tuples[k] = v, v.Tuple()
	}
	i = 0
	lookup := k.time(func() {
		for k := 0; k < kernelBatch; k++ {
			sink += tab.Lookup(tuples[i%n]).LastSeen()
			i++
		}
	})
	m["dataplane.kernel_lookup_ns"] = lookup

	// The raw kernel alone: each view is rewritten by its flow's entry,
	// then by the mirror entry, so it oscillates like the frames do.
	pairs := make([][2]*dataplane.Entry, n)
	for k, ft := range tuples {
		fwd := tab.Lookup(ft)
		pairs[k] = [2]*dataplane.Entry{fwd, tab.Lookup(fwd.To)}
	}
	i = 0
	rawrule := k.time(func() {
		for k := 0; k < kernelBatch; k++ {
			e := pairs[i%n][(i/n)%2]
			if e.Dir == dataplane.Egress {
				e.Raw().ApplyEgress(&views[i%n], true)
			} else {
				e.Raw().ApplyIngress(&views[i%n], true)
			}
			i++
		}
	})
	m["dataplane.kernel_rawrule_ns"] = rawrule

	packetKernels(k, set[0], m)
	m["dataplane.glue_ns"] = inline - m["packet.kernel_parseview_ns"] - lookup - rawrule

	// The struct path the raw path is checked against.
	scratch := make([]byte, 0, len(set[0]))
	i = 0
	m["dataplane.struct_ns_per_frame"] = k.time(func() {
		for k := 0; k < kernelBatch; k++ {
			p, err := packet.Parse(set[i%n])
			if err != nil {
				panic(err)
			}
			r.eng.ProcessInline(p)
			scratch = p.AppendTo(scratch[:0])
			i++
		}
	})

	// Through the ring: one feeder, one worker.
	fed, fullShare := fedKernel(r.eng, set, k.calls)
	m["dataplane.fed_ns_per_frame"] = fed
	m["dataplane.feed_full_share"] = fullShare
	m["dataplane.ring_ns_per_frame"] = fed - inline

	// Single control operations on the loaded table.
	var installUs, removeUs []float64
	for k := 0; k < 4096; k++ {
		key, e := wireTuple(r.flows+k), wireEntry(r.flows+k, false)
		t := time.Now()
		tab.Install(key, e)
		installUs = append(installUs, float64(time.Since(t).Nanoseconds())/1e3)
		t = time.Now()
		tab.Remove(key)
		removeUs = append(removeUs, float64(time.Since(t).Nanoseconds())/1e3)
	}
	m["dataplane.install_p50_us"] = quantile(installUs, 0.50)
	m["dataplane.install_p95_us"] = quantile(installUs, 0.95)
	m["dataplane.remove_p50_us"] = quantile(removeUs, 0.50)
}

// fedKernel pushes frames through worker 0's ring from this goroutine and
// returns ns per frame (start to drained) and the share of pushes that
// found the ring full.
func fedKernel(eng *dataplane.Engine, set [][]byte, frames int) (nsPerFrame, fullShare float64) {
	var full int
	t := time.Now()
	eng.Start()
	for i := 0; i < frames; i++ {
		for !eng.FeedRawWorker(0, set[i%len(set)]) {
			full++
			runtime.Gosched()
		}
	}
	eng.Stop()
	ns := float64(time.Since(t).Nanoseconds())
	return ns / float64(frames), float64(full) / float64(frames+full)
}
