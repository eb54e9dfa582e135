package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/packet"
)

// Config sizes the engine. The zero value of DisableOptionTranslation
// matches core.Config: option translation on.
type Config struct {
	// Workers is the run-to-completion loop count (default
	// runtime.GOMAXPROCS(0)).
	Workers int
	// Shards is the rewrite-table shard count, rounded up to a power of
	// two (default 64).
	Shards int
	// RingSize is the per-worker SPSC ring capacity, rounded up to a
	// power of two (default 1024).
	RingSize int
	// Batch is how many packets a worker pulls per ring pop (default 32).
	Batch int
	// DisableOptionTranslation switches off the §4.2 TCP option
	// rewriting, exactly like core.Config.DisableOptionTranslation.
	DisableOptionTranslation bool
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards <= 0 {
		c.Shards = 64
	}
	if c.RingSize <= 0 {
		c.RingSize = 1024
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
}

// Verdict is the per-packet outcome of the rewrite path.
type Verdict uint8

const (
	// Pass: no entry matched; the packet is unchanged.
	Pass Verdict = iota
	// Rewritten: an entry matched and its Rule was applied in place.
	Rewritten
	// Rejected: a raw frame failed ParseView validation (truncated,
	// malformed options, bad lengths) and was left byte-for-byte
	// untouched. The struct path never returns this: its callers parse
	// before feeding, so malformed frames never reach the engine.
	Rejected
)

// Outcome records one processed packet's post-rewrite header for the
// differential oracle (recording mode only; benchmarks leave it off).
type Outcome struct {
	Tuple   packet.FiveTuple
	Seq     uint32
	Ack     uint32
	Window  uint16
	TSVal   uint32 // 0 when the packet carries no timestamp option
	TSEcr   uint32
	Verdict Verdict
}

// worker is one run-to-completion loop: pop a batch from the own ring,
// process each packet to completion, repeat. Counters are plain worker-
// local fields — they are read only after Stop's WaitGroup barrier.
type worker struct {
	eng   *Engine
	ring  *Ring
	batch []item

	processed uint64
	rewritten uint64
	rejected  uint64

	record bool
	out    []Outcome
}

// Engine is the concurrent rewrite engine: a shared sharded Table and a
// pool of workers behind per-worker SPSC rings. Flows are pinned to
// workers by hash (the RSS model), so per-flow packet order is preserved
// end to end — the property the differential oracle's exact-match replay
// depends on.
type Engine struct {
	cfg     Config
	table   *Table
	workers []*worker
	// workerShift is packet.BucketShift(len(workers)), hoisted out of
	// WorkerFor.
	workerShift uint

	stop    atomic.Bool
	running bool
	wg      sync.WaitGroup
}

// New builds an engine (not yet started) with its own table.
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	e := &Engine{cfg: cfg, table: NewTable(cfg.Shards), workerShift: packet.BucketShift(cfg.Workers)}
	e.workers = make([]*worker, cfg.Workers)
	for i := range e.workers {
		e.workers[i] = &worker{
			eng:   e,
			ring:  NewRing(cfg.RingSize),
			batch: make([]item, cfg.Batch),
		}
	}
	return e
}

// Table exposes the rewrite table; Install/Remove/SweepIdle on it are
// the engine's control operations, safe concurrently with processing.
func (e *Engine) Table() *Table { return e.table }

// Workers returns the worker count.
func (e *Engine) Workers() int { return len(e.workers) }

// WorkerFor returns the worker index a flow is pinned to. The hash is
// rotated before bucketing so the worker choice stays independent of
// the shard choice (both fold the same 64-bit hash; unrotated they
// would share their top bits). This is packet.Bucket(rotated hash,
// workers) with the log2 hoisted into New.
func (e *Engine) WorkerFor(ft packet.FiveTuple) int {
	h := ft.Hash()
	return int(((h<<32 | h>>32) * packet.FibMix) >> e.workerShift)
}

// SetRecording switches per-worker outcome recording. Must be called
// before Start.
func (e *Engine) SetRecording(on bool) {
	for _, w := range e.workers {
		w.record = on
	}
}

// Outcomes returns worker i's recorded outcomes, in that worker's
// arrival order. Valid only after Stop.
func (e *Engine) Outcomes(i int) []Outcome { return e.workers[i].out }

// Start launches the worker loops.
func (e *Engine) Start() {
	if e.running {
		return
	}
	e.running = true
	e.stop.Store(false)
	for _, w := range e.workers {
		e.wg.Add(1)
		go w.run()
	}
}

// Feed routes p onto its flow's worker ring, returning false when that
// ring is full (every rejection by one of the four Feed variants is
// counted in EngineStats.FeedFull). Single-producer contract: all Feed
// calls must come from one goroutine (use FeedWorker from multiple
// feeders that own disjoint workers).
func (e *Engine) Feed(p *packet.Packet) bool {
	return e.workers[e.WorkerFor(p.Tuple)].ring.Push(p)
}

// FeedWorker pushes p directly onto worker i's ring, for feeders that
// pre-partition traffic (one feeder per worker, the per-queue NIC
// model). The single-producer-per-ring contract still applies.
func (e *Engine) FeedWorker(i int, p *packet.Packet) bool {
	return e.workers[i].ring.Push(p)
}

// FeedRaw routes a serialized frame onto its flow's worker ring for the
// zero-copy fast path, returning false when that ring is full. The
// worker rewrites the frame bytes in place; the caller must not touch
// them until after Stop. Flow pinning uses the same tuple hash as Feed,
// so a flow's raw and struct packets land on the same worker; frames
// ParseView rejects have no tuple and go to worker 0, which re-validates
// and counts them Rejected. Single-producer contract as Feed.
func (e *Engine) FeedRaw(frame []byte) bool {
	w := 0
	if v, err := packet.ParseView(frame); err == nil {
		w = e.WorkerFor(v.Tuple())
	}
	return e.workers[w].ring.PushRaw(frame)
}

// FeedRawWorker pushes a frame directly onto worker i's ring, the raw
// counterpart of FeedWorker.
func (e *Engine) FeedRawWorker(i int, frame []byte) bool {
	return e.workers[i].ring.PushRaw(frame)
}

// Stop asks the workers to drain their rings and exit, then waits for
// them. Feeders must have stopped first.
func (e *Engine) Stop() {
	if !e.running {
		return
	}
	e.stop.Store(true)
	e.wg.Wait()
	e.running = false
}

// ProcessInline runs the lookup+rewrite path on the caller's goroutine,
// bypassing the rings: the caller acts as its own run-to-completion
// worker. This is the path the throughput benchmarks drive from N
// goroutines — it measures table+kernel scalability without a feeder
// thread in the way.
func (e *Engine) ProcessInline(p *packet.Packet) Verdict {
	return e.processOne(p)
}

// processOne is the shared per-packet kernel: one table lookup, then the
// direction's side of the core.Rule rewrite, in place.
func (e *Engine) processOne(p *packet.Packet) Verdict {
	ent := e.table.Lookup(p.Tuple)
	if ent == nil {
		return Pass
	}
	if ent.Dir == Egress {
		ent.ApplyEgress(p, !e.cfg.DisableOptionTranslation)
	} else {
		ent.ApplyIngress(p, !e.cfg.DisableOptionTranslation)
	}
	return Rewritten
}

// ProcessRawInline runs the zero-copy rewrite on the caller's goroutine,
// bypassing the rings — the raw counterpart of ProcessInline and the
// path the raw throughput benchmark drives. The frame is validated,
// looked up, and rewritten in place; Rejected frames are untouched.
func (e *Engine) ProcessRawInline(frame []byte) Verdict {
	return e.processRawOne(frame)
}

// processRawOne is the per-frame raw kernel: one up-front bounds
// validation (ParseView), one table lookup on the tuple read straight
// from the header bytes, then the compiled RawRule rewrite in place with
// incremental checksum folding. No allocation, no parse, no serialize.
func (e *Engine) processRawOne(frame []byte) Verdict {
	v, err := packet.ParseView(frame)
	if err != nil {
		return Rejected
	}
	ent := e.table.Lookup(v.Tuple())
	if ent == nil {
		return Pass
	}
	if ent.Dir == Egress {
		ent.raw.ApplyEgress(&v, !e.cfg.DisableOptionTranslation)
	} else {
		ent.raw.ApplyIngress(&v, !e.cfg.DisableOptionTranslation)
	}
	return Rewritten
}

// EngineStats aggregates the worker counters; valid after Stop.
type EngineStats struct {
	Processed uint64 `json:"processed"`
	Rewritten uint64 `json:"rewritten"`
	Rejected  uint64 `json:"rejected"`
	// FeedFull counts Feed/FeedWorker/FeedRaw/FeedRawWorker calls that
	// returned false because the target ring was full.
	FeedFull uint64     `json:"feed_full"`
	Table    TableStats `json:"table"`
}

// Stats returns the engine totals. Valid only after Stop and after the
// feeders have been joined (worker counters are unsynchronized
// worker-local state, FeedFull is unsynchronized producer-local state).
func (e *Engine) Stats() EngineStats {
	st := EngineStats{Table: e.table.Stats()}
	for _, w := range e.workers {
		st.Processed += w.processed
		st.Rewritten += w.rewritten
		st.Rejected += w.rejected
		st.FeedFull += w.ring.full
	}
	return st
}

// run is the worker loop: run-to-completion batches, spin-yield when
// idle, exit once stopped AND drained (packets fed before Stop are
// never dropped).
func (w *worker) run() {
	defer w.eng.wg.Done()
	for {
		n := w.ring.PopBatch(w.batch)
		if n == 0 {
			if w.eng.stop.Load() && w.ring.Len() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		w.processed += uint64(n)
		for _, it := range w.batch[:n] {
			if it.raw != nil {
				w.processRaw(it.raw)
				continue
			}
			p := it.p
			v := w.process(p)
			if w.record {
				o := Outcome{Tuple: p.Tuple, Seq: p.Seq, Ack: p.Ack, Window: p.Window, Verdict: v}
				if p.Opts.TS != nil {
					o.TSVal, o.TSEcr = p.Opts.TS.Val, p.Opts.TS.Ecr
				}
				w.out = append(w.out, o)
			}
		}
	}
}

// process handles one packet to completion. Hot-path root: everything
// reachable from here (Lookup, the Rule kernel) is proven alloc-free
// and non-blocking by the lint rules; recording and counters stay in
// run, outside the proven region.
func (w *worker) process(p *packet.Packet) Verdict {
	v := w.eng.processOne(p)
	if v == Rewritten {
		w.rewritten++
	}
	return v
}

// processRaw handles one raw frame to completion, in place. Hot-path
// root like process: ParseView, the table lookup, and the RawRule
// kernel under it are proven alloc-free and non-blocking by the lint
// rules, and TestRawPathZeroAlloc pins the same claim dynamically.
func (w *worker) processRaw(frame []byte) Verdict {
	v := w.eng.processRawOne(frame)
	switch v {
	case Rewritten:
		w.rewritten++
	case Rejected:
		w.rejected++
	case Pass:
	}
	return v
}
