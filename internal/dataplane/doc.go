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
// Correctness is anchored to the simulator, not re-argued from scratch:
// both sides execute the identical core.Rule kernel, and the differential
// oracle (RunDiff) replays one packet+control sequence through a
// single-threaded reference table and through the concurrent engine under
// -race, asserting identical verdicts and rewrites for stable flows and
// self-consistent (never torn) rewrites for flows under concurrent
// install/remove churn.
//
// Table.Lookup and worker.process are hot-path roots: the allocfree and
// blockfree lint rules statically prove the reader fast path allocates
// nothing and cannot block.
package dataplane
