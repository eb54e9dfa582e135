package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/packet"
)

// Config sizes the engine. The zero value of DisableOptionTranslation
// matches the simulated agent, which always translates options.
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
	// Batch is how many frames a worker pulls per ring pop (default 32).
	Batch int
	// DisableOptionTranslation switches off the §4.2 TCP option
	// rewriting (SACK, timestamps, window scale) for the ablation the
	// oracle tests run; the simulated agent has no such switch.
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

// Verdict is the per-frame outcome of the rewrite path.
type Verdict uint8

const (
	// Pass: no entry matched; the frame is unchanged.
	Pass Verdict = iota
	// Rewritten: an entry matched and its Rule was applied in place.
	Rewritten
	// Rejected: a frame failed ParseView validation (truncated,
	// malformed options, bad lengths) and was left byte-for-byte
	// untouched. ProcessInline never returns this: its caller has
	// already parsed the packet.
	Rejected
)

// worker is one run-to-completion loop: pop a batch from the own ring,
// process each frame to completion, repeat. Counters are plain worker-
// local fields — they are read only after Stop's WaitGroup barrier. The
// pad keeps them off the cache line a feeder reads ring from on every
// push: sharing it doubles the fed cost per frame (the worker's counter
// stores keep invalidating the feeder's copy).
type worker struct {
	eng   *Engine
	ring  *Ring
	batch [][]byte
	_     [64]byte

	processed uint64
	rewritten uint64
	rejected  uint64
}

// Engine is the concurrent rewrite engine: a shared sharded Table and a
// pool of workers behind per-worker SPSC rings. Flows are pinned to
// workers by hash (the RSS model), so per-flow frame order is preserved
// end to end.
type Engine struct {
	cfg     Config
	table   *Table
	workers []*worker

	stop    atomic.Bool
	running bool
	wg      sync.WaitGroup
}

// New builds an engine (not yet started) with its own table.
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	e := &Engine{cfg: cfg, table: NewTable(cfg.Shards)}
	e.workers = make([]*worker, cfg.Workers)
	for i := range e.workers {
		e.workers[i] = &worker{
			eng:   e,
			ring:  NewRing(cfg.RingSize),
			batch: make([][]byte, cfg.Batch),
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
// would share their top bits). The worker count need not be a power of
// two: the top 32 bits of the Fibonacci product are scaled onto
// [0, workers) by a second multiply-shift, which for a power of two is
// exactly packet.Bucket(rotated hash, workers).
func (e *Engine) WorkerFor(ft packet.FiveTuple) int {
	h := ft.Hash()
	hi := ((h<<32 | h>>32) * packet.FibMix) >> 32
	return int(hi * uint64(len(e.workers)) >> 32)
}

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

// FeedRaw routes a serialized frame onto its flow's worker ring,
// returning false when that ring is full (every such rejection is
// counted in EngineStats.FeedFull). The worker rewrites the frame bytes
// in place; the caller must not touch them until after Stop. Frames
// ParseView rejects have no tuple and go to worker 0, which re-validates
// and counts them Rejected. Single-producer contract: all FeedRaw calls
// must come from one goroutine (use FeedRawWorker from multiple feeders
// that own disjoint workers).
func (e *Engine) FeedRaw(frame []byte) bool {
	w := 0
	if v, err := packet.ParseView(frame); err == nil {
		w = e.WorkerFor(v.Tuple())
	}
	return e.workers[w].ring.Push(frame)
}

// FeedRawWorker pushes a frame directly onto worker i's ring, for
// feeders that pre-partition traffic (one feeder per worker, the
// per-queue NIC model). The single-producer-per-ring contract still
// applies.
func (e *Engine) FeedRawWorker(i int, frame []byte) bool {
	return e.workers[i].ring.Push(frame)
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

// ProcessInline runs the struct kernel on an already-parsed packet, on
// the caller's goroutine: one table lookup, then the direction's side of
// the core.Rule rewrite, in place. Workers never run it — it is the
// reference the raw path is diffed against (Parse → ProcessInline →
// Serialize) and the ledger's struct_ns_per_frame. Hot-path root: Lookup
// and the Rule kernel under it are proven alloc-free and non-blocking by
// the lint rules.
func (e *Engine) ProcessInline(p *packet.Packet) Verdict {
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
// bypassing the rings: the caller acts as its own run-to-completion
// worker. The frame is validated, looked up, and rewritten in place;
// Rejected frames are untouched.
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
	// FeedFull counts FeedRaw/FeedRawWorker calls that returned false
	// because the target ring was full.
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
// idle, exit once stopped AND drained (frames fed before Stop are
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
		for _, frame := range w.batch[:n] {
			w.processRaw(frame)
		}
	}
}

// processRaw handles one frame to completion, in place. Hot-path root:
// ParseView, the table lookup, and the RawRule kernel under it are
// proven alloc-free and non-blocking by the lint rules, and
// TestRawPathZeroAlloc pins the same claim dynamically.
func (w *worker) processRaw(frame []byte) {
	switch w.eng.processRawOne(frame) {
	case Rewritten:
		w.rewritten++
	case Rejected:
		w.rejected++
	case Pass:
	}
}
