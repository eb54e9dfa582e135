package dataplane

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
)

// Dir says which side of the §3.4 translation an entry applies: Egress
// rewrites session→subsession on the way out (ack/SACK/TS-echo deltas,
// window rescale), Ingress rewrites subsession→session on the way in
// (seq/TS-val deltas).
type Dir uint8

const (
	// Egress entries run Rule.ApplyEgress.
	Egress Dir = iota
	// Ingress entries run Rule.ApplyIngress.
	Ingress
)

// Entry is one installed rewrite: the shared core.Rule kernel plus the
// direction selecting which side of it runs. Entries are immutable after
// Install — updating a flow means installing a fresh Entry, never
// mutating one in place — which is what makes the lock-free readers
// torn-read-free by construction: a reader that loads an *Entry from a
// slot sees every field Install wrote before publishing it. The only
// mutable field is the atomic last-seen epoch stamp used by idle
// eviction.
type Entry struct {
	core.Rule
	Dir Dir

	// installed and key are filled in by the first Install (before the
	// entry is published): an entry carries the key it is installed
	// under, so a reader matches a slot by comparing against the entry
	// itself and the table needs no separate key storage. The key's hash
	// is not kept — rebuilds recompute it — which keeps an Entry in the
	// 144-byte size class.
	installed bool
	key       packet.FiveTuple

	// seen is the table epoch at which a lookup last matched this entry.
	// Readers stamp it only when it differs from the current epoch, so a
	// busy flow's cache line is written once per epoch, not once per
	// packet (races between two readers stamping the same epoch are
	// harmless).
	seen atomic.Uint64

	// raw is the Rule compiled for the zero-copy fast path, filled in by
	// Install (before the entry is published, so readers always see it
	// complete). The struct and raw kernels of one entry are two
	// lowerings of the same Rule — the equivalence the differential
	// oracle (oracle_test.go) checks.
	raw RawRule
}

// Raw returns the entry's compiled raw-path rule. Valid after Install.
func (e *Entry) Raw() *RawRule { return &e.raw }

// LastSeen returns the epoch stamp of the last matching lookup.
func (e *Entry) LastSeen() uint64 { return e.seen.Load() }

// tombstone marks a slot whose entry was removed while later slots of
// its probe chain are still occupied: lookups step over it, Install
// reuses it. It is never returned to a caller.
var tombstone = new(Entry)

// minSlots is the smallest slot array a shard holds.
const minSlots = 8

// slotArray is one shard's open-addressing table: linear probing over a
// power-of-two array of atomically published entry pointers. A slot is
// nil (never used, or freed at the end of a cluster), the tombstone, or a
// live entry. The header is immutable; slots are only ever written by
// the shard's writer, one atomic store at a time, and only while the
// array is the shard's current one — an array that has been replaced is
// never written again.
type slotArray struct {
	shift uint // 64 - log2(len(slots)): home slot = slot bits >> shift
	slots []atomic.Pointer[Entry]
}

func newSlotArray(n int) *slotArray {
	return &slotArray{shift: packet.BucketShift(n), slots: make([]atomic.Pointer[Entry], n)}
}

// shard is one power-of-two slice of the key space. The trailing pad
// keeps neighboring shards' hit/miss counters off each other's cache
// line: the counters are the only cross-core write traffic on the read
// path, and false sharing there is exactly the scalability bug the
// ledger's dataplane.scaling_2r (bench/) would surface.
type shard struct {
	arr atomic.Pointer[slotArray]

	// mu serializes writers (Install/Remove/SweepIdle). Readers never
	// touch it.
	mu sync.Mutex
	// live is the installed entry count: written under mu, read by
	// Len/Stats without it. tombs counts tombstone slots of the current
	// array (writers only). live+tombs never exceeds half the slots, so
	// every probe chain ends at a nil slot.
	live  atomic.Int64
	tombs int

	hits   atomic.Uint64
	misses atomic.Uint64

	_ [64]byte
}

// Table is the sharded concurrent rewrite table. One FNV-1a hash per
// operation picks both the shard — packet.Bucket(tuple.Hash(), shards),
// the Fibonacci fold's top bits, so sequential port allocations spread —
// and, from the bits below those, the home slot inside the shard.
//
// Memory ordering: Go's sync/atomic operations are sequentially
// consistent. A writer fills in every field of an Entry before the
// slot's atomic Store publishes the pointer, and never writes the entry
// again; a reader's slot Load therefore observes either the slot's
// previous value or a complete entry — the release/acquire pair on the
// slot is the entire synchronization protocol of the read path, and it
// is what the differential oracle's torn-entry check exercises under
// -race. The same pair on shard.arr covers a rebuilt array: it is fully
// populated before it is published.
type Table struct {
	shards     []shard
	shardShift uint // packet.BucketShift(len(shards))
	shardBits  uint // log2(len(shards)): hash bits the shard index used up
	epoch      atomic.Uint64
}

// NewTable builds a table with the given shard count, rounded up to a
// power of two (minimum 1).
func NewTable(shards int) *Table {
	n := 1
	for n < shards {
		n <<= 1
	}
	t := &Table{shards: make([]shard, n), shardShift: packet.BucketShift(n)}
	t.shardBits = 64 - t.shardShift
	for i := range t.shards {
		t.shards[i].arr.Store(newSlotArray(minSlots))
	}
	return t
}

// Shards returns the shard count (a power of two).
func (t *Table) Shards() int { return len(t.shards) }

// shardIndex is packet.Bucket(h, len(t.shards)) with the log2 hoisted
// into NewTable.
func (t *Table) shardIndex(h uint64) int {
	return int((h * packet.FibMix) >> t.shardShift)
}

// slotBits returns the Fibonacci product with the shard's bits shifted
// out: its top log2(len(slots)) bits are the home slot, independent of
// the shard choice and well mixed for the same reason the shard bits are.
func (t *Table) slotBits(h uint64) uint64 {
	return (h * packet.FibMix) << t.shardBits
}

// Lookup returns the entry installed for ft, or nil. This is the reader
// fast path: one hash, one atomic array load, atomic slot loads along
// the probe chain until the key matches or a nil slot ends it, one
// epoch stamp per epoch — lock-free, allocation-free, non-blocking
// (TestDataplaneLookupZeroAlloc, TestReaderPathTakesNoLock). The chain is short
// because at most half the slots are in use; the loop is bounded by the
// array length anyway, so a lookup racing a writer that keeps refilling
// the slots ahead of it still terminates.
func (t *Table) Lookup(ft packet.FiveTuple) *Entry {
	h := ft.Hash()
	s := &t.shards[t.shardIndex(h)]
	a := s.arr.Load()
	mask := uint64(len(a.slots) - 1)
	i := t.slotBits(h) >> a.shift
	for n := len(a.slots); n > 0; n-- {
		e := a.slots[i&mask].Load()
		if e == nil {
			break
		}
		if e != tombstone && e.key == ft {
			if now := t.epoch.Load(); e.seen.Load() != now {
				e.seen.Store(now)
			}
			s.hits.Add(1)
			return e
		}
		i++
	}
	s.misses.Add(1)
	return nil
}

// find walks ft's probe chain in a for the writers. It returns the slot
// holding ft (found), or else the slot a new entry for ft belongs in:
// the first tombstone of the chain if there is one, otherwise the nil
// slot that ends the chain. Caller holds the shard mutex.
func (a *slotArray) find(bits uint64, ft packet.FiveTuple) (slot uint64, found bool) {
	mask := uint64(len(a.slots) - 1)
	free := mask + 1 // no tombstone passed yet
	for i := bits >> a.shift; ; i++ {
		e := a.slots[i&mask].Load()
		switch {
		case e == nil:
			if free > mask {
				free = i & mask
			}
			return free, false
		case e == tombstone:
			if free > mask {
				free = i & mask
			}
		case e.key == ft:
			return i & mask, true
		}
	}
}

// Install publishes e as the rewrite for ft (replacing any previous
// entry) with one atomic slot store: into the slot already holding ft,
// else the first tombstone of ft's probe chain, else the nil slot ending
// it — after the whole chain has been checked for ft, so a key never
// occupies two slots. Concurrent readers see the old entry or the new
// one, never a mix.
//
// One Entry, one Install: the entry records the key it is installed
// under and is immutable from then on, because readers may hold it for
// as long as their current packet takes — also after a Remove. The
// caller must not mutate e afterwards, must not install it under a
// second key (Install panics), and should not re-install it after
// removing it; an update is a fresh Entry.
func (t *Table) Install(ft packet.FiveTuple, e *Entry) {
	h := ft.Hash()
	if e.installed {
		if e.key != ft {
			panic(fmt.Sprintf("dataplane: Install(%v): entry is already installed under %v (one Entry, one Install)", ft, e.key))
		}
	} else {
		e.raw = CompileRaw(&e.Rule, e.Dir)
		e.installed, e.key = true, ft
	}
	e.seen.Store(t.epoch.Load())
	bits := t.slotBits(h)
	s := &t.shards[t.shardIndex(h)]
	s.mu.Lock()
	a := s.arr.Load()
	slot, found := a.find(bits, ft)
	if !found {
		if a.slots[slot].Load() == tombstone {
			s.tombs--
		} else if n := int(s.live.Load()) + 1; 2*(n+s.tombs) > len(a.slots) {
			// A nil slot is about to be used up: keep live+tombs within
			// half the array by rebuilding (which also drops every
			// tombstone) when it would not be.
			a = s.rebuild(t, a)
			slot, _ = a.find(bits, ft)
		}
		s.live.Add(1)
	}
	a.slots[slot].Store(e)
	s.mu.Unlock()
}

// rebuild replaces the shard's array with one sized for the live
// entries — the smallest power of two ≥ 4×live, so it comes out at most
// a quarter full and at least len/4 nil slots are consumed before the
// next rebuild (amortized O(1) per Install) — and holding only them. The
// new array is complete before arr.Store publishes it; the old one is
// never written again, so a reader still probing it sees a frozen,
// consistent table. Caller holds the shard mutex.
func (s *shard) rebuild(t *Table, old *slotArray) *slotArray {
	n := minSlots
	for live := int(s.live.Load()); n < 4*live; n <<= 1 {
	}
	next := newSlotArray(n)
	for i := range old.slots {
		if e := old.slots[i].Load(); e != nil && e != tombstone {
			slot, _ := next.find(t.slotBits(e.key.Hash()), e.key)
			next.slots[slot].Store(e)
		}
	}
	s.tombs = 0
	s.arr.Store(next)
	return next
}

// clear unpublishes the live entry in slot i. If the next slot is nil no
// probe chain continues past i, so the slot — and every tombstone
// directly before it — goes back to nil; otherwise a later key's chain
// may run through i and it becomes a tombstone. Either way one atomic
// store per slot, each preserving the invariant readers rely on: no nil
// slot ever appears between a live entry and its home slot. Caller
// holds the shard mutex.
func (s *shard) clear(a *slotArray, i uint64) {
	mask := uint64(len(a.slots) - 1)
	s.live.Add(-1)
	if a.slots[(i+1)&mask].Load() != nil {
		a.slots[i].Store(tombstone)
		s.tombs++
		return
	}
	a.slots[i].Store(nil)
	for j := (i - 1) & mask; a.slots[j].Load() == tombstone; j = (j - 1) & mask {
		a.slots[j].Store(nil)
		s.tombs--
	}
}

// Remove deletes the entry for ft, if any, and reports whether one was
// removed. A reader that loaded the entry before the slot store may
// still apply it to its current packet; the entry's memory is reclaimed
// by the GC once the last such reader drops it.
func (t *Table) Remove(ft packet.FiveTuple) bool {
	h := ft.Hash()
	s := &t.shards[t.shardIndex(h)]
	s.mu.Lock()
	a := s.arr.Load()
	slot, found := a.find(t.slotBits(h), ft)
	if found {
		s.clear(a, slot)
	}
	s.mu.Unlock()
	return found
}

// Len returns the total number of installed entries (consistent per
// shard, not across shards).
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		n += int(t.shards[i].live.Load())
	}
	return n
}

// Epoch returns the current eviction epoch.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// AdvanceEpoch moves the idle-eviction clock forward one tick and
// returns the new epoch. The control plane calls this on its own period
// (the table has no clock of its own: inside the simulator that period
// is virtual time, in the benchmarks it is wall time).
func (t *Table) AdvanceEpoch() uint64 { return t.epoch.Add(1) }

// SweepIdle removes every entry whose last matching lookup is at an
// epoch <= before, returning how many were evicted. This is the idle
// session GC: entries a reader stamps concurrently with the sweep may
// survive one extra cycle or be evicted just after a match — both are
// acceptable for an idle timeout. Each eviction is Remove's in-place
// slot store; walking a shard's slots from the top down lets a cluster's
// freed tail fall back to nil instead of leaving tombstones.
func (t *Table) SweepIdle(before uint64) int {
	evicted := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		a := s.arr.Load()
		for j := len(a.slots) - 1; j >= 0; j-- {
			if e := a.slots[j].Load(); e != nil && e != tombstone && e.seen.Load() <= before {
				s.clear(a, uint64(j))
				evicted++
			}
		}
		s.mu.Unlock()
	}
	return evicted
}

// TableStats is a point-in-time summary of the table.
type TableStats struct {
	Shards          int    `json:"shards"`
	Entries         int    `json:"entries"`
	MaxShardEntries int    `json:"max_shard_entries"`
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
}

// Stats aggregates the per-shard counters and occupancy.
func (t *Table) Stats() TableStats {
	st := TableStats{Shards: len(t.shards)}
	for i := range t.shards {
		s := &t.shards[i]
		n := int(s.live.Load())
		st.Entries += n
		if n > st.MaxShardEntries {
			st.MaxShardEntries = n
		}
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
	}
	return st
}

// FillMetrics folds the table's counters and per-shard occupancy into an
// obs metrics registry under the canonical dataplane metric names.
func (t *Table) FillMetrics(m *obs.Metrics) {
	if m == nil {
		return
	}
	st := t.Stats()
	m.Add(obs.MDataplaneHits, st.Hits)
	m.Add(obs.MDataplaneMisses, st.Misses)
	occ := m.Histogram(obs.MDataplaneShardEntries, obs.DataplaneOccupancyBounds()...)
	for i := range t.shards {
		occ.Observe(float64(t.shards[i].live.Load()))
	}
}
