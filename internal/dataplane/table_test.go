package dataplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
)

func testTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.MakeAddr(10, 0, byte(i>>8), byte(i)),
		DstIP:   packet.MakeAddr(10, 1, 0, 1),
		SrcPort: packet.Port(1024 + i),
		DstPort: 80,
	}
}

func testEntry(i int) *Entry {
	return &Entry{Dir: Ingress, Rule: core.Rule{
		To:     testTuple(i).Reverse(),
		SeqAdd: int64(i) + 1,
	}}
}

func TestTableInstallLookupRemove(t *testing.T) {
	tb := NewTable(8)
	if tb.Shards() != 8 {
		t.Fatalf("shards = %d, want 8", tb.Shards())
	}
	const n = 500
	for i := 0; i < n; i++ {
		tb.Install(testTuple(i), testEntry(i))
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	for i := 0; i < n; i++ {
		e := tb.Lookup(testTuple(i))
		if e == nil {
			t.Fatalf("entry %d missing", i)
		}
		if e.SeqAdd != int64(i)+1 {
			t.Fatalf("entry %d has SeqAdd %d", i, e.SeqAdd)
		}
	}
	if tb.Lookup(testTuple(n+1)) != nil {
		t.Fatal("lookup of never-installed tuple matched")
	}
	// Reinstall replaces.
	tb.Install(testTuple(0), &Entry{Dir: Egress, Rule: core.Rule{AckAdd: -9}})
	if e := tb.Lookup(testTuple(0)); e.Dir != Egress || e.AckAdd != -9 {
		t.Fatalf("reinstall not visible: %+v", e)
	}
	if tb.Len() != n {
		t.Fatalf("Len after reinstall = %d, want %d", tb.Len(), n)
	}
	for i := 0; i < n; i++ {
		if !tb.Remove(testTuple(i)) {
			t.Fatalf("remove %d: not found", i)
		}
	}
	if tb.Remove(testTuple(0)) {
		t.Fatal("double remove succeeded")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len after removal = %d", tb.Len())
	}
	st := tb.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("counters not maintained: %+v", st)
	}
}

func TestTableShardRoundsUp(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {64, 64}, {65, 128}} {
		if got := NewTable(c.in).Shards(); got != c.want {
			t.Errorf("NewTable(%d).Shards() = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestTableIdleEviction: entries a lookup keeps stamping survive sweeps;
// idle entries are collected once their last-seen epoch falls behind.
func TestTableIdleEviction(t *testing.T) {
	tb := NewTable(4)
	for i := 0; i < 20; i++ {
		tb.Install(testTuple(i), testEntry(i))
	}
	// Epoch 1: only flows 0..9 are active.
	tb.AdvanceEpoch()
	for i := 0; i < 10; i++ {
		tb.Lookup(testTuple(i))
	}
	// Entries installed at epoch 0 and never matched are stale.
	if got := tb.SweepIdle(0); got != 10 {
		t.Fatalf("SweepIdle(0) evicted %d, want 10", got)
	}
	if tb.Len() != 10 {
		t.Fatalf("Len after sweep = %d, want 10", tb.Len())
	}
	for i := 0; i < 10; i++ {
		if tb.Lookup(testTuple(i)) == nil {
			t.Fatalf("active entry %d evicted", i)
		}
	}
	for i := 10; i < 20; i++ {
		if tb.Lookup(testTuple(i)) != nil {
			t.Fatalf("idle entry %d survived", i)
		}
	}
	// Two more idle epochs collect everything.
	tb.AdvanceEpoch()
	tb.AdvanceEpoch()
	if got := tb.SweepIdle(tb.Epoch() - 1); got != 10 {
		t.Fatalf("final sweep evicted %d, want 10", got)
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after full sweep", tb.Len())
	}
}

// TestTableConcurrentChurn hammers one table with parallel readers and
// writers under -race: the slot publication protocol must keep every
// lookup result fully consistent (matching entries are always complete).
func TestTableConcurrentChurn(t *testing.T) {
	tb := NewTable(8)
	const keys = 64
	var readersDone atomic.Bool
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; !readersDone.Load(); i++ {
				j := rng.Intn(keys)
				if i%3 == 0 {
					tb.Remove(testTuple(j))
				} else {
					tb.Install(testTuple(j), testEntry(j))
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	errc := make(chan error, 4)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 20000; i++ {
				j := rng.Intn(keys)
				if e := tb.Lookup(testTuple(j)); e != nil {
					// Entry fields must be exactly testEntry(j)'s: a torn
					// entry would mix fields of different keys/versions.
					if e.SeqAdd != int64(j)+1 || e.To != testTuple(j).Reverse() {
						errc <- fmt.Errorf("torn entry for key %d: %+v", j, e)
						return
					}
				}
			}
		}(r)
	}
	readers.Wait()
	readersDone.Store(true)
	writers.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

func TestTableFillMetrics(t *testing.T) {
	tb := NewTable(4)
	for i := 0; i < 32; i++ {
		tb.Install(testTuple(i), testEntry(i))
	}
	tb.Lookup(testTuple(1))
	tb.Lookup(testTuple(10_000)) // miss
	m := obs.NewMetrics()
	tb.FillMetrics(m)
	if m.Counter(obs.MDataplaneHits) != 1 || m.Counter(obs.MDataplaneMisses) != 1 {
		t.Fatalf("hit/miss counters: %d/%d", m.Counter(obs.MDataplaneHits), m.Counter(obs.MDataplaneMisses))
	}
	h := m.Hist(obs.MDataplaneShardEntries)
	if h == nil || h.N != 4 {
		t.Fatalf("occupancy histogram: %+v", h)
	}
}

// checkTable walks every shard's slot array (single-threaded: no writer
// may be running) and verifies the structure the readers rely on: the
// live and tombstone counters are exact, at most half the slots are in
// use, no key occupies two slots, and no nil slot lies between a live
// entry and its home slot.
func checkTable(t *testing.T, tb *Table) {
	t.Helper()
	seen := map[packet.FiveTuple]bool{}
	for si := range tb.shards {
		s := &tb.shards[si]
		a := s.arr.Load()
		mask := uint64(len(a.slots) - 1)
		live, tombs := 0, 0
		for i := range a.slots {
			e := a.slots[i].Load()
			switch {
			case e == nil:
			case e == tombstone:
				tombs++
			default:
				live++
				if seen[e.key] {
					t.Fatalf("shard %d: key %v occupies two slots", si, e.key)
				}
				seen[e.key] = true
				h := e.key.Hash()
				if tb.shardIndex(h) != si {
					t.Fatalf("shard %d holds key %v of shard %d", si, e.key, tb.shardIndex(h))
				}
				for j := tb.slotBits(h) >> a.shift; j&mask != uint64(i); j++ {
					if a.slots[j&mask].Load() == nil {
						t.Fatalf("shard %d: nil slot %d between key %v at %d and its home", si, j&mask, e.key, i)
					}
				}
			}
		}
		if live != int(s.live.Load()) || tombs != s.tombs {
			t.Fatalf("shard %d: counted %d live %d tombstones, counters say %d/%d", si, live, tombs, s.live.Load(), s.tombs)
		}
		if 2*(live+tombs) > len(a.slots) {
			t.Fatalf("shard %d: %d live + %d tombstones in %d slots", si, live, tombs, len(a.slots))
		}
	}
}

// collidingTuples returns n distinct tuples (testTuple indices from
// start upward) that all land on home slot `home` of tb's shard 0 at
// its current array size.
func collidingTuples(tb *Table, home uint64, start, n int) []packet.FiveTuple {
	a := tb.shards[0].arr.Load()
	var out []packet.FiveTuple
	for i := start; len(out) < n; i++ {
		if ft := testTuple(i); tb.slotBits(ft.Hash())>>a.shift == home {
			out = append(out, ft)
		}
	}
	return out
}

func slotOf(tb *Table, ft packet.FiveTuple) int {
	a := tb.shards[0].arr.Load()
	for i := range a.slots {
		if e := a.slots[i].Load(); e != nil && e != tombstone && e.key == ft {
			return i
		}
	}
	return -1
}

// TestTableProbeChain drives one cluster of a 1-shard table by hand:
// four keys sharing home slot 2 of the minimum 8-slot array.
func TestTableProbeChain(t *testing.T) {
	tb := NewTable(1)
	arr := tb.shards[0].arr.Load()
	k := collidingTuples(tb, 2, 0, 4)
	a, b, c, d := k[0], k[1], k[2], k[3]
	for i, ft := range []packet.FiveTuple{a, b, c} {
		tb.Install(ft, testEntry(i))
		if got := slotOf(tb, ft); got != 2+i {
			t.Fatalf("key %d in slot %d, want %d", i, got, 2+i)
		}
	}

	// Removing the middle key leaves a tombstone (c's chain runs through
	// it); lookups of c probe past it, lookups of b end at the nil after c.
	if !tb.Remove(b) {
		t.Fatal("remove b: not found")
	}
	if arr.slots[3].Load() != tombstone || tb.shards[0].tombs != 1 {
		t.Fatalf("slot 3 after removing b: %p, tombs %d", arr.slots[3].Load(), tb.shards[0].tombs)
	}
	if e := tb.Lookup(c); e == nil || e.SeqAdd != 3 {
		t.Fatalf("lookup of c past the tombstone: %+v", e)
	}
	if tb.Lookup(b) != nil {
		t.Fatal("removed key still matches")
	}
	checkTable(t, tb)

	// Replacing c must find it beyond the tombstone and store in place:
	// taking the tombstone would leave c in two slots.
	c2 := &Entry{Dir: Egress, Rule: core.Rule{AckAdd: -7}}
	tb.Install(c, c2)
	if tb.Lookup(c) != c2 || slotOf(tb, c) != 4 || arr.slots[3].Load() != tombstone || tb.Len() != 2 {
		t.Fatalf("replace beyond a tombstone: c in slot %d, slot 3 %p, Len %d", slotOf(tb, c), arr.slots[3].Load(), tb.Len())
	}
	checkTable(t, tb)

	// A new key of the chain reuses the tombstone.
	tb.Install(d, testEntry(3))
	if slotOf(tb, d) != 3 || tb.shards[0].tombs != 0 || tb.Len() != 3 {
		t.Fatalf("tombstone reuse: d in slot %d, tombs %d, Len %d", slotOf(tb, d), tb.shards[0].tombs, tb.Len())
	}
	checkTable(t, tb)

	// d is tombstoned while c follows it; removing c, the cluster's last
	// key, frees its slot to nil and takes the tombstone before it along.
	tb.Remove(d)
	if arr.slots[3].Load() != tombstone {
		t.Fatal("d not tombstoned while c follows it")
	}
	tb.Remove(c)
	if arr.slots[4].Load() != nil || arr.slots[3].Load() != nil || tb.shards[0].tombs != 0 {
		t.Fatalf("cluster end not freed: slot 3 %p slot 4 %p tombs %d", arr.slots[3].Load(), arr.slots[4].Load(), tb.shards[0].tombs)
	}
	if e := tb.Lookup(a); e == nil || e.SeqAdd != 1 || tb.Len() != 1 {
		t.Fatalf("a after the cluster shrank: %+v, Len %d", e, tb.Len())
	}
	checkTable(t, tb)
	if tb.shards[0].arr.Load() != arr {
		t.Fatal("array was rebuilt with at most 3 of 8 slots in use")
	}
}

// TestTableRebuildUnderReaders puts a 1-shard table through both kinds
// of rebuild while 4 readers look up stable keys spread over the same
// slots. Each round installs a dense run of keys homed in one quarter of
// the array (growth rebuilds), removes them front to back — every
// removed slot still has a live successor, so the run turns into
// tombstones pinned by its last key — and then installs a few keys
// elsewhere, which tips live+tombstones over half the slots with few
// entries live: a purging rebuild into a smaller array. A stable key must
// never miss and never yield another key's entry, whichever array a
// reader happens to hold.
func TestTableRebuildUnderReaders(t *testing.T) {
	tb := NewTable(1)
	const stable, run, filler, rounds = 64, 900, 200, 12
	for i := 0; i < stable; i++ {
		tb.Install(testTuple(i), testEntry(i))
	}
	var done atomic.Bool
	var readers sync.WaitGroup
	errc := make(chan error, 4)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; !done.Load(); i++ {
				j := i % stable
				e := tb.Lookup(testTuple(j))
				if e == nil {
					errc <- fmt.Errorf("stable key %d missed", j)
					return
				}
				if e.SeqAdd != int64(j)+1 || e.key != testTuple(j) {
					errc <- fmt.Errorf("stable key %d matched %+v", j, e)
					return
				}
			}
		}(r)
	}
	grown, purged, prev := 0, 0, tb.shards[0].arr.Load()
	install := func(i int) {
		tb.Install(testTuple(i), testEntry(i))
		if cur := tb.shards[0].arr.Load(); cur != prev {
			if len(cur.slots) > len(prev.slots) {
				grown++
			} else {
				purged++
			}
			prev = cur
		}
	}
	remove := func(i int) {
		if !tb.Remove(testTuple(i)) {
			t.Fatalf("churn key %d not found", i)
		}
	}
	next := stable
	for round := 0; round < rounds; round++ {
		// The top two slot bits are the array quarter at every size.
		var dense, sparse []int
		for ; len(dense) < run || len(sparse) < filler; next++ {
			q := int(tb.slotBits(testTuple(next).Hash()) >> 62)
			if q == round%4 && len(dense) < run {
				dense = append(dense, next)
			} else if q != round%4 && len(sparse) < filler {
				sparse = append(sparse, next)
			}
		}
		sort.Slice(dense, func(a, b int) bool {
			return tb.slotBits(testTuple(dense[a]).Hash()) < tb.slotBits(testTuple(dense[b]).Hash())
		})
		for _, i := range dense {
			install(i)
		}
		for _, i := range dense[:run-1] {
			remove(i)
		}
		for _, i := range sparse {
			install(i)
		}
		for _, i := range sparse {
			remove(i)
		}
		remove(dense[run-1])
	}
	done.Store(true)
	readers.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// The writer is alone and its keys are fixed, so these counts are
	// deterministic.
	if grown < rounds || purged < rounds {
		t.Fatalf("%d growth and %d purge rebuilds in %d rounds: the churn did not exercise both", grown, purged, rounds)
	}
	if tb.Len() != stable {
		t.Fatalf("Len = %d, want %d", tb.Len(), stable)
	}
	checkTable(t, tb)
}

// TestTableChurnBounded: Install+Remove pairs on a full shard reuse
// tombstones and purge them by rebuilding at the same size, so the slot
// array stays within 4× the live entries (rounded up to a power of two)
// however long the churn runs, and miss lookups keep ending at a nil.
func TestTableChurnBounded(t *testing.T) {
	tb := NewTable(1)
	const live, extra, pairs = 512, 4096, 1_000_000
	for i := 0; i < live; i++ {
		tb.Install(testTuple(i), testEntry(i))
	}
	purges, prev := 0, tb.shards[0].arr.Load()
	for n := 0; n < pairs; n++ {
		i := live + n%extra
		tb.Install(testTuple(i), testEntry(i))
		if cur := tb.shards[0].arr.Load(); cur != prev {
			purges, prev = purges+1, cur
		}
		if !tb.Remove(testTuple(i)) {
			t.Fatalf("pair %d: key just installed not found", n)
		}
	}
	if got := len(prev.slots); got > 4*live || purges < 2 {
		t.Fatalf("%d slots for %d live entries after %d pairs and %d rebuilds", got, live, pairs, purges)
	}
	checkTable(t, tb)
	for i := live; i < live+extra; i++ {
		if tb.Lookup(testTuple(i)) != nil {
			t.Fatalf("removed key %d matched", i)
		}
	}
	for i := 0; i < live; i++ {
		if e := tb.Lookup(testTuple(i)); e == nil || e.SeqAdd != int64(i)+1 {
			t.Fatalf("resident key %d: %+v", i, e)
		}
	}
	if tb.Len() != live {
		t.Fatalf("Len = %d, want %d", tb.Len(), live)
	}
}

// TestTableMatchesRefModel replays random Install/Remove/Lookup/
// AdvanceEpoch/SweepIdle sequences over a small key space (2 shards, so
// chains collide constantly) against Ref, the plain-map model, sharing
// entry pointers so idle stamps are the same on both sides.
func TestTableMatchesRefModel(t *testing.T) {
	replay := func(ops []uint16) bool {
		tb, ref := NewTable(2), NewRef(Config{})
		for n, op := range ops {
			ft := testTuple(int(op >> 3 % 96))
			switch op & 7 {
			case 0, 1, 2:
				e := testEntry(n)
				tb.Install(ft, e)
				ref.Install(ft, e)
			case 3, 4:
				if got, want := tb.Remove(ft), ref.Remove(ft); got != want {
					t.Errorf("op %d: Remove(%v) = %v, model %v", n, ft, got, want)
					return false
				}
			case 5:
				tb.AdvanceEpoch()
			case 6:
				if tb.Epoch() == 0 {
					continue
				}
				before := tb.Epoch() - 1
				want := 0
				for k, e := range ref.entries {
					if e.LastSeen() <= before {
						ref.Remove(k)
						want++
					}
				}
				if got := tb.SweepIdle(before); got != want {
					t.Errorf("op %d: SweepIdle(%d) = %d, model %d", n, before, got, want)
					return false
				}
			case 7:
				if got, want := tb.Lookup(ft), ref.entries[ft]; got != want {
					t.Errorf("op %d: Lookup(%v) = %p, model %p", n, ft, got, want)
					return false
				}
			}
			if tb.Len() != ref.Len() {
				t.Errorf("op %d: Len = %d, model %d", n, tb.Len(), ref.Len())
				return false
			}
		}
		checkTable(t, tb)
		for i := 0; i < 96; i++ {
			if got, want := tb.Lookup(testTuple(i)), ref.entries[testTuple(i)]; got != want {
				t.Errorf("final Lookup(%d) = %p, model %p", i, got, want)
				return false
			}
		}
		return !t.Failed()
	}
	// quick's own []uint16 generator stops at 50 elements; sequences long
	// enough to grow, sweep and purge the arrays need a custom one.
	cfg := &quick.Config{
		MaxCount: 100,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			ops := make([]uint16, 1+r.Intn(4000))
			for i := range ops {
				ops[i] = uint16(r.Intn(1 << 16))
			}
			args[0] = reflect.ValueOf(ops)
		},
	}
	if err := quick.Check(replay, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTableShardIndexIsBucket pins the hoisted shard shift to
// packet.Bucket, the definition the ≤2×-mean occupancy property in
// package packet is stated for, at every power-of-two shard count —
// including 1, where the shift is the full word.
func TestTableShardIndexIsBucket(t *testing.T) {
	for shards := 1; shards <= 1<<12; shards <<= 1 {
		tb := NewTable(shards)
		for i := 0; i < 2000; i++ {
			h := testTuple(i).Hash()
			if got, want := tb.shardIndex(h), packet.Bucket(h, shards); got != want {
				t.Fatalf("shards=%d: shardIndex(%#x) = %d, packet.Bucket = %d", shards, h, got, want)
			}
		}
	}
}

// TestTableOneEntryOneInstall: an Entry records its key, so a second
// Install under another key is refused loudly instead of silently
// rewriting a published entry under its readers.
func TestTableOneEntryOneInstall(t *testing.T) {
	tb := NewTable(4)
	e := testEntry(1)
	tb.Install(testTuple(1), e)
	tb.Install(testTuple(1), e) // same key: a no-op republish
	if tb.Len() != 1 || tb.Lookup(testTuple(1)) != e {
		t.Fatalf("re-install under the same key: Len %d", tb.Len())
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "one Entry, one Install") {
			t.Fatalf("Install under a second key: recovered %q", msg)
		}
		if tb.Len() != 1 || tb.Lookup(testTuple(2)) != nil {
			t.Fatal("refused Install changed the table")
		}
	}()
	tb.Install(testTuple(2), e)
}

// TestEntrySize keeps Entry in the 144-byte allocation size class: churn
// allocates one per Install, and the next class up is 11% more garbage.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got > 144 {
		t.Fatalf("Entry is %d bytes, want <= 144", got)
	}
}
