// Package dataplane is the concurrent run-to-completion packet-rewrite
// engine: the multi-core execution of the same §3.4/§4.2 rewrite
// semantics that core.Agent runs single-threaded inside the simulator.
//
// The paper's core performance claim (§4, Fig. 8–9) is that session-based
// five-tuple rewriting is cheap enough for the packet path at line rate.
// This package makes that claim testable in the repro: a sharded rewrite
// table with lock-free, allocation-free lookups and O(1) in-place
// writes (per shard one open-addressing array of atomically published,
// immutable entries; writers take a per-shard mutex and publish with a
// single slot store, rebuilding the array only when half of it is used
// up), a pool of per-core workers pulling fixed-size batches from
// per-worker SPSC rings (the RSS model: one queue per core, flows pinned
// to queues by hash), and control-plane install/remove operations
// serialized through the shard writers.
//
// Serialized frames are the engine's one unit of work, as they are for
// the paper's in-kernel agent (§4.1): rings, batches and workers carry
// []byte, and RawRule rewrites them in place with incremental checksums.
// The struct kernel is reachable only through Engine.ProcessInline, on
// the caller's goroutine — it is the oracle the raw path is diffed
// against, not a second data path.
//
// Correctness is anchored to the simulator, not re-argued from scratch:
// RawRule is compiled from the identical core.Rule the agent executes,
// and the differential oracle (oracle_test.go) feeds one frame sequence
// through the concurrent engine under -race and demands bytes identical
// to Parse → core.Rule → Serialize for stable flows, untouched bytes for
// malformed frames, and — for frames to keys under concurrent
// install/remove churn — either untouched bytes or the exact rewrite of
// one installed version (never a torn entry).
//
// The reader fast path — Table.Lookup, Engine.ProcessInline,
// worker.processRaw and the RawRule kernels — allocates nothing on any
// branch (TestDataplaneLookupZeroAlloc, TestRawPathZeroAlloc) and never
// waits on a writer's lock (TestReaderPathTakesNoLock).
package dataplane
