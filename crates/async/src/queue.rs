//! The asynchronous engine's event queue: a bucketed (calendar) priority
//! queue that pops in exactly the `(time, seq)` order of a binary heap over
//! all pending events.
//!
//! Simulated time is cut into buckets of `1 / BUCKETS_PER_UNIT` time
//! units. Only the events of the current bucket sit in a small
//! [`BinaryHeap`]; a pop reads nothing else. A pushed event is filed,
//! whole, in one of three places:
//!
//! * the current heap, when its bucket is the current one (or earlier);
//! * the ring slot of its bucket, when that bucket lies within `RING`
//!   buckets ahead. A slot is a linked list of fixed-size chunks drawn
//!   from one shared free list; loading a slot into the heap returns its
//!   drained chunks to that list, so retained memory follows the number
//!   of pending events, not the ring's span;
//! * the overflow list, otherwise. It is redistributed whenever the
//!   current bucket crosses a multiple of `RING` (the ring wraps), and
//!   the queue jumps straight to its earliest bucket when the ring and
//!   the heap are both empty.
//!
//! Every overflow event's bucket lies at least one lap past the current
//! bucket's lap, so no bucket is loaded before its overflow events have
//! reached the ring. Nothing is ever dropped, merged or reordered: stale
//! retransmission timers are popped like any other event.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Buckets per simulated time unit. Adversary delays are spread over
/// `(0, 1]`, so a bucket holds about 1/1024 of the deliveries pending
/// within the next unit: a few hundred events at `n = 2048`, which keeps
/// the current heap shallow. (256 per unit cost about a fifth more per pop
/// there; 4096 bought little more and grew the resident chunks.)
const BUCKETS_PER_UNIT: f64 = 1024.0;

/// Ring slots: 4 time units, which covers every delivery (delay ≤ 1 plus
/// link service) and the default retransmission timeout of 2.5. Only
/// backed-off timers and far scheduled wake-ups or crashes overflow.
const RING: u64 = 4096;

/// Events per chunk (3 KiB at 48 bytes per event). Only a slot's last
/// chunk may be partly filled, so the waste is at most one chunk per
/// slot that holds events.
const CHUNK: usize = 64;

/// The end of a chunk list.
const NONE: u32 = u32::MAX;

/// A scheduled event. Ordered by `(time, seq)`; `seq` is the queue's push
/// counter, which makes the pop order fully deterministic and acts as the
/// FIFO tie-break for simultaneous events.
pub(crate) struct Event<K> {
    pub(crate) time: f64,
    seq: u64,
    pub(crate) kind: K,
}

impl<K> PartialEq for Event<K> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<K> Eq for Event<K> {}

impl<K> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Event<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        // Times are always finite: the engine validates every adversary
        // delay (rejecting NaN/out-of-range) before scheduling.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The bucket of `time`. Multiplying by a power of two is exact and the
/// cast floors (negative times saturate to 0, huge ones to `u64::MAX`), so
/// buckets never decrease as time grows: an earlier bucket means an
/// earlier time.
#[inline]
fn bucket(time: f64) -> u64 {
    (time * BUCKETS_PER_UNIT) as u64
}

/// A ring slot: the first and last chunk of its list.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NONE,
    tail: NONE,
};

/// Up to `CHUNK` events of one bucket, and the next chunk of its slot.
struct Chunk<K> {
    events: Vec<Event<K>>,
    next: u32,
}

/// A priority queue of [`Event`]s popping in `(time, seq)` order, which
/// assigns each pushed event the next `seq`. See the module docs.
pub(crate) struct EventQueue<K> {
    /// The events whose bucket is at most `cur`.
    current: BinaryHeap<Event<K>>,
    /// Slot `b % RING` holds the events of bucket `b`, for
    /// `cur < b < cur + RING`.
    slots: Vec<Slot>,
    chunks: Vec<Chunk<K>>,
    /// Indices of the empty chunks.
    free: Vec<u32>,
    /// The events of buckets at or past the next lap,
    /// `(cur / RING + 1) * RING`.
    overflow: Vec<Event<K>>,
    /// The current bucket.
    cur: u64,
    /// Events held in the ring's chunks.
    ring_len: usize,
    seq: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        EventQueue {
            current: BinaryHeap::new(),
            slots: vec![EMPTY_SLOT; RING as usize],
            chunks: Vec::new(),
            free: Vec::new(),
            overflow: Vec::new(),
            cur: 0,
            ring_len: 0,
            seq: 0,
        }
    }
}

impl<K> EventQueue<K> {
    /// The number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.current.len() + self.ring_len + self.overflow.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `kind` at `time` under the next sequence number.
    pub(crate) fn push(&mut self, time: f64, kind: K) {
        let ev = Event {
            time,
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        self.place(bucket(time), ev);
    }

    /// Removes and returns the earliest event by `(time, seq)`.
    pub(crate) fn pop(&mut self) -> Option<Event<K>> {
        if self.current.is_empty() {
            self.advance();
        }
        self.current.pop()
    }

    /// Drops every pending event and restarts the sequence at 0, keeping
    /// the heap, chunk and overflow storage for the next trial.
    pub(crate) fn clear(&mut self) {
        self.current.clear();
        self.overflow.clear();
        self.slots.fill(EMPTY_SLOT);
        self.free.clear();
        for (i, chunk) in self.chunks.iter_mut().enumerate() {
            chunk.events.clear();
            chunk.next = NONE;
            self.free.push(i as u32);
        }
        self.cur = 0;
        self.ring_len = 0;
        self.seq = 0;
    }

    /// Files `ev`, whose bucket is `b`, into the heap, its ring slot or the
    /// overflow list.
    fn place(&mut self, b: u64, ev: Event<K>) {
        if b <= self.cur {
            self.current.push(ev);
        } else if b - self.cur < RING {
            self.append((b % RING) as usize, ev);
        } else {
            self.overflow.push(ev);
        }
    }

    /// Appends `ev` to ring slot `slot`, starting a new chunk when the
    /// slot's last one is full.
    fn append(&mut self, slot: usize, ev: Event<K>) {
        let tail = self.slots[slot].tail;
        let tail = if tail != NONE && self.chunks[tail as usize].events.len() < CHUNK {
            tail
        } else {
            let fresh = self.free.pop().unwrap_or_else(|| {
                self.chunks.push(Chunk {
                    events: Vec::with_capacity(CHUNK),
                    next: NONE,
                });
                u32::try_from(self.chunks.len() - 1).expect("fewer than 2^32 chunks")
            });
            if tail == NONE {
                self.slots[slot].head = fresh;
            } else {
                self.chunks[tail as usize].next = fresh;
            }
            self.slots[slot].tail = fresh;
            fresh
        };
        self.chunks[tail as usize].events.push(ev);
        self.ring_len += 1;
    }

    /// Moves the current bucket forward to the next one holding events
    /// and loads them into the (empty) heap; does nothing on an empty
    /// queue.
    fn advance(&mut self) {
        debug_assert!(self.current.is_empty());
        if self.ring_len == 0 {
            // Nothing within the ring: jump to the earliest overflow
            // bucket, which the redistribution then loads.
            let Some(first) = self.overflow.iter().map(|e| bucket(e.time)).min() else {
                return;
            };
            self.cur = first;
            self.redistribute();
            return;
        }
        // Some slot ahead holds events, so this stops within RING steps.
        loop {
            self.cur += 1;
            if self.cur.is_multiple_of(RING) {
                self.redistribute();
            }
            self.load((self.cur % RING) as usize);
            if !self.current.is_empty() {
                return;
            }
        }
    }

    /// Moves every overflow event whose bucket now lies within the ring
    /// (or is the current one) to its place.
    fn redistribute(&mut self) {
        let mut i = 0;
        while i < self.overflow.len() {
            let b = bucket(self.overflow[i].time);
            debug_assert!(b >= self.cur, "an overflow bucket was passed");
            if b - self.cur < RING {
                let ev = self.overflow.swap_remove(i);
                self.place(b, ev);
            } else {
                i += 1;
            }
        }
    }

    /// Empties ring slot `slot` (the current bucket's) into the heap and
    /// returns its chunks to the free list.
    fn load(&mut self, slot: usize) {
        let mut c = self.slots[slot].head;
        self.slots[slot] = EMPTY_SLOT;
        while c != NONE {
            let chunk = &mut self.chunks[c as usize];
            debug_assert!(chunk.events.iter().all(|e| bucket(e.time) == self.cur));
            self.ring_len -= chunk.events.len();
            self.current.extend(chunk.events.drain(..));
            self.free.push(c);
            c = std::mem::replace(&mut chunk.next, NONE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prop_assert_eq;

    /// Pops everything, as `(time bits, seq, kind)`.
    fn drain(q: &mut EventQueue<u64>) -> Vec<(u64, u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.to_bits(), e.seq, e.kind))
            .collect()
    }

    /// The kinds of all events, in pop order.
    fn kinds(q: &mut EventQueue<u64>) -> Vec<u64> {
        drain(q).into_iter().map(|e| e.2).collect()
    }

    /// The same, from the reference heap.
    fn drain_heap(h: &mut BinaryHeap<Event<u64>>) -> Vec<(u64, u64, u64)> {
        std::iter::from_fn(|| h.pop())
            .map(|e| (e.time.to_bits(), e.seq, e.kind))
            .collect()
    }

    /// Pushes `times` into a fresh queue and a reference heap and checks
    /// that both pop the same sequence.
    fn assert_same_order(times: &[f64]) {
        let mut q = EventQueue::default();
        let mut h = BinaryHeap::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i as u64);
            h.push(Event {
                time: t,
                seq: i as u64,
                kind: i as u64,
            });
        }
        assert_eq!(q.len(), times.len());
        assert_eq!(drain(&mut q), drain_heap(&mut h));
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = EventQueue::default();
        for k in 0..3 * CHUNK as u64 {
            q.push(1.5, k);
        }
        q.push(0.25, 999);
        let order = kinds(&mut q);
        assert_eq!(order[0], 999);
        assert_eq!(&order[1..], (0..3 * CHUNK as u64).collect::<Vec<_>>());
    }

    #[test]
    fn bucket_edges_wraps_and_overflow_keep_the_order() {
        let unit = 1.0 / BUCKETS_PER_UNIT;
        let lap = RING as f64 * unit;
        assert_same_order(&[
            0.0,
            unit,
            unit - f64::EPSILON,
            lap - unit,
            lap,
            lap + unit,
            2.0 * lap,
            2.0 * lap - 1e-9,
            1e6,
            1e6,
            f64::MAX,
            3.0 * lap + 0.5,
            0.5,
        ]);
    }

    #[test]
    fn an_empty_ring_jumps_to_the_overflow() {
        let mut q = EventQueue::default();
        q.push(1000.0, 0);
        q.push(1000.0 + 2.0, 1);
        q.push(1000.0 + 9.0, 2);
        assert_eq!(q.overflow.len(), 3);
        assert_eq!(q.pop().map(|e| e.kind), Some(0));
        // The jump filed the 2-unit event in the ring, not the 9-unit one.
        assert_eq!((q.ring_len, q.overflow.len()), (1, 1));
        q.push(1000.5, 3);
        assert_eq!(kinds(&mut q), [3, 1, 2]);
    }

    #[test]
    fn an_overflow_event_at_a_lap_start_loads_when_the_ring_wraps() {
        let lap = RING as f64 / BUCKETS_PER_UNIT;
        let mut q = EventQueue::default();
        q.push(0.0, 0);
        q.push(1.0, 1);
        q.push(lap, 2);
        assert_eq!(q.overflow.len(), 1);
        assert_eq!(q.pop().map(|e| e.kind), Some(0));
        assert_eq!(q.pop().map(|e| e.kind), Some(1));
        // Within the ring now, but past the overflow event: the scan must
        // pick that event up as it crosses the lap boundary.
        q.push(lap + 0.5, 3);
        assert_eq!((q.ring_len, q.overflow.len()), (1, 1));
        assert_eq!(kinds(&mut q), [2, 3]);
    }

    #[test]
    fn drained_chunks_return_to_the_free_list_and_clear_keeps_storage() {
        let fill = |q: &mut EventQueue<u64>| {
            for k in 0..10 * CHUNK as u64 {
                q.push(0.5 + (k % 7) as f64, k);
            }
        };
        let mut q = EventQueue::default();
        fill(&mut q);
        assert!(q.ring_len > 0 && !q.overflow.is_empty());
        let chunks = q.chunks.len();
        drain(&mut q);
        assert_eq!(q.free.len(), chunks, "drained chunks are free");
        // Between trials: the next trial reuses every chunk.
        q.clear();
        fill(&mut q);
        assert_eq!(q.chunks.len(), chunks);
        q.clear();
        assert_eq!(q.free.len(), chunks, "clear frees pending chunks");
        assert!(q.is_empty());
        // The sequence restarts, as in a fresh queue.
        q.push(0.0, 7);
        assert_eq!(q.pop().map(|e| (e.seq, e.kind)), Some((0, 7)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn pops_match_a_binary_heap(
            ops in proptest::collection::vec((0u32..100, 0u64..u64::MAX), 0..700),
        ) {
            let mut q = EventQueue::default();
            let mut h: BinaryHeap<Event<u64>> = BinaryHeap::new();
            let mut seq = 0u64;
            // The time of the last pop: engines schedule relative to it.
            let mut now = 0.0f64;
            for (i, &(op, r)) in ops.iter().enumerate() {
                let frac = (r >> 11) as f64 / (1u64 << 53) as f64;
                let t = match op {
                    // Pop.
                    0..=34 => {
                        let got = q.pop();
                        let want = h.pop();
                        prop_assert_eq!(
                            got.as_ref().map(|e| (e.time.to_bits(), e.seq, e.kind)),
                            want.as_ref().map(|e| (e.time.to_bits(), e.seq, e.kind))
                        );
                        if let Some(e) = want {
                            now = e.time;
                        }
                        prop_assert_eq!(q.len(), h.len());
                        continue;
                    }
                    // Reuse after `clear`, as between arena trials.
                    35 => {
                        q.clear();
                        h.clear();
                        seq = 0;
                        now = 0.0;
                        continue;
                    }
                    // Equal times and bucket edges: a few exact offsets.
                    36..=54 => now + (r % 4) as f64 / BUCKETS_PER_UNIT,
                    // Within the current bucket.
                    55..=64 => now + frac / BUCKETS_PER_UNIT,
                    // A delivery: up to one unit ahead.
                    65..=84 => now + frac,
                    // Up to past the end of the ring (wrap-around).
                    85..=94 => now + 4.5 * frac,
                    // Far past the ring: overflow and jump.
                    95..=97 => now + 50.0 * frac,
                    // The start of the next or the second lap.
                    98 => {
                        let lap = RING as f64 / BUCKETS_PER_UNIT;
                        ((now / lap).floor() + 1.0 + (r % 2) as f64) * lap
                    }
                    // Before the last pop.
                    _ => now - now * frac,
                };
                q.push(t, i as u64);
                h.push(Event { time: t, seq, kind: i as u64 });
                seq += 1;
                prop_assert_eq!(q.len(), h.len());
            }
            prop_assert_eq!(drain(&mut q), drain_heap(&mut h));
        }
    }
}
