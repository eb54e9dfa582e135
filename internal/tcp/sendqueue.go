package tcp

// sendQueue is the send buffer: the bytes [sndUna, sndUna+n) held as the
// slices Send was given, never copied. A ring of slice headers keeps them in
// stream order; acknowledgments advance an offset into the oldest slice and
// release the slices they finish. Segments share the bytes: read returns a
// capped sub-slice of one queued slice and copies only a range that
// straddles two.
type sendQueue struct {
	ring  [][]byte // power-of-two length; slots [first, last) are live, indexed mod len
	first int      // absolute index of the slot holding the first unacknowledged byte
	last  int      // absolute index one past the newest slot
	head  int      // bytes of the first slot already acknowledged
	acked int      // stream offset of the first unacknowledged byte
	n     int      // bytes queued and not yet acknowledged
}

// qcursor remembers where a sequence of reads is: a slot and the stream
// offset of its first byte. Reads that move forward from the previous one,
// as first transmissions do, find their slice without walking from the
// front of the queue.
type qcursor struct{ slot, start int }

func (q *sendQueue) slot(i int) []byte { return q.ring[i&(len(q.ring)-1)] }

// push appends b to the queue, keeping b itself. Empty slices are not kept.
func (q *sendQueue) push(b []byte) {
	if len(b) == 0 {
		return
	}
	if q.last-q.first == len(q.ring) {
		ring := make([][]byte, max(8, 2*len(q.ring)))
		for i := q.first; i < q.last; i++ {
			ring[i&(len(ring)-1)] = q.slot(i)
		}
		q.ring = ring
	}
	q.ring[q.last&(len(q.ring)-1)] = b
	q.last++
	q.n += len(b)
}

// drop removes the first n bytes (acknowledged) and releases every slice
// they finish. A queue it empties gives back a ring grown past 8 slots: a
// drained connection keeps no burst-sized ring.
func (q *sendQueue) drop(n int) {
	q.n -= n
	q.acked += n
	n += q.head
	for q.first < q.last && n >= len(q.slot(q.first)) {
		n -= len(q.slot(q.first))
		q.ring[q.first&(len(q.ring)-1)] = nil
		q.first++
	}
	q.head = n
	if q.first == q.last && len(q.ring) > 8 {
		q.ring = nil
	}
}

// read returns the n bytes at offset off from the front of the queue
// (off+n <= q.n, n > 0): a capped sub-slice when they lie in one queued
// slice, else a copy. cur is moved to the slot holding off.
func (q *sendQueue) read(cur *qcursor, off, n int) []byte {
	at := q.acked + off
	if cur.slot < q.first || at < cur.start {
		cur.slot, cur.start = q.first, q.acked-q.head
	}
	b := q.slot(cur.slot)
	for at >= cur.start+len(b) {
		cur.start += len(b)
		cur.slot++
		b = q.slot(cur.slot)
	}
	i := at - cur.start
	if i+n <= len(b) {
		return b[i : i+n : i+n]
	}
	out := make([]byte, 0, n)
	for s := cur.slot; len(out) < n; s++ {
		b = q.slot(s)[i:]
		out = append(out, b[:min(len(b), n-len(out))]...)
		i = 0
	}
	return out
}

// release drops every slice of a queue that will not be read again; n still
// reports the bytes that were never acknowledged.
func (q *sendQueue) release() { *q = sendQueue{n: q.n} }
