package packet

// FNV-1a 64-bit parameters (FNV is the repo-wide fingerprint function:
// the observability hub, the causal DAG, and the fault-schedule hashes
// all use it, so the data plane does too).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1aByte folds one byte into an FNV-1a state.
func fnv1aByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// Hash returns the FNV-1a 64-bit hash of the five-tuple's canonical wire
// encoding (big endian: u8 proto | u32 srcIP | u32 dstIP | u16 srcPort |
// u16 dstPort — the same 13-byte layout core's appendTuple puts on the
// wire), computed without materializing the bytes. It is the hash behind
// everything that shards or load-balances by flow: the concurrent
// rewrite table's shard index and the engine's worker (RSS queue)
// selection, both derived through Bucket. Allocation-free and
// branch-free (TestHotpathHelpersZeroAlloc in internal/core).
func (ft FiveTuple) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = fnv1aByte(h, byte(ft.Proto))
	h = fnv1aByte(h, byte(ft.SrcIP>>24))
	h = fnv1aByte(h, byte(ft.SrcIP>>16))
	h = fnv1aByte(h, byte(ft.SrcIP>>8))
	h = fnv1aByte(h, byte(ft.SrcIP))
	h = fnv1aByte(h, byte(ft.DstIP>>24))
	h = fnv1aByte(h, byte(ft.DstIP>>16))
	h = fnv1aByte(h, byte(ft.DstIP>>8))
	h = fnv1aByte(h, byte(ft.DstIP))
	h = fnv1aByte(h, byte(ft.SrcPort>>8))
	h = fnv1aByte(h, byte(ft.SrcPort))
	h = fnv1aByte(h, byte(ft.DstPort>>8))
	h = fnv1aByte(h, byte(ft.DstPort))
	return h
}

// FibMix is 2^64 / φ (the Fibonacci hashing multiplier), odd so the
// multiply is a bijection on uint64.
const FibMix = 0x9E3779B97F4A7C15

// Bucket maps a Hash value onto one of n buckets, where n must be a
// power of two. It multiplies by the Fibonacci constant and keeps the
// TOP log2(n) bits of the product: multiplication propagates entropy
// upward, so the top bits mix every input byte, whereas the raw FNV-1a
// low bits correlate for sequential inputs (adjacent ports from a port
// allocator would pile onto a few shards). Every component that buckets
// tuples — shard index, worker queue — goes through this one function,
// or through its two halves when n is fixed for the component's
// lifetime: BucketShift(n) once at construction, then
// (h * FibMix) >> shift per packet.
func Bucket(h uint64, n int) int {
	return int((h * FibMix) >> BucketShift(n))
}

// BucketShift returns the right shift that leaves the top log2(n) bits
// of a 64-bit product: 64 for n == 1, where Go's shift semantics make
// every hash land in bucket 0.
func BucketShift(n int) uint {
	return 64 - uint(trailingZeros(uint64(n)))
}

// trailingZeros is math/bits.TrailingZeros64 restricted to the
// power-of-two inputs Bucket accepts (n == 1<<k, k in [0,63]).
func trailingZeros(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
