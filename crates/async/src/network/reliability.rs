//! Engine-internal state of the per-link stop-and-wait reliability
//! protocol.
//!
//! One [`RelLink`] per *touched* directed link carries both endpoint
//! roles: the sender side (sequence counter, the single unacknowledged
//! in-flight payload, and a backlog of payloads waiting for the link) and
//! the receiver side (the highest sequence delivered, for duplicate
//! suppression). Entries live in an insertion-ordered slab — iteration
//! order (used when a recovered node re-arms its timers) is therefore a
//! deterministic function of the execution history, independent of hash
//! table capacity, which keeps fresh and arena-recycled trials
//! byte-identical.

use std::collections::VecDeque;

use clique_model::ports::{OpenTable, Port};

/// The single unacknowledged payload in flight on a directed link.
pub(crate) struct Outstanding<M> {
    /// Link-local sequence number (1-based).
    pub(crate) seq: u32,
    /// The payload, retained for retransmission.
    pub(crate) msg: M,
    /// Wire transmissions performed so far (1 after the initial send).
    pub(crate) attempts: u32,
}

/// Per-directed-link protocol state (both endpoint roles; see module
/// docs).
pub(crate) struct RelLink<M> {
    /// Directed-link key `src·n + dst`.
    pub(crate) key: u64,
    /// The receiver-side port of the link, which every payload on it is
    /// addressed to (set by the sender on each dispatch).
    pub(crate) dst_port: Port,
    /// Sequence number most recently assigned by the sender (0 = none).
    pub(crate) next_seq: u32,
    /// The sender's unacknowledged in-flight payload.
    pub(crate) inflight: Option<Outstanding<M>>,
    /// Payloads waiting for the link (stop-and-wait admits one at a time).
    pub(crate) backlog: VecDeque<M>,
    /// Highest sequence the receiver accepted on this link (duplicate
    /// suppression; gaps appear only when the sender abandoned a payload).
    pub(crate) delivered_hi: u32,
}

impl<M> RelLink<M> {
    fn new(key: u64) -> Self {
        RelLink {
            key,
            dst_port: Port(0),
            next_seq: 0,
            inflight: None,
            backlog: VecDeque::new(),
            delivered_hi: 0,
        }
    }

    fn scrub(&mut self) {
        self.next_seq = 0;
        self.inflight = None;
        self.backlog.clear();
        self.delivered_hi = 0;
    }
}

/// All touched-link protocol state of one execution, with storage that
/// recycles across arena trials: cleared entries park in a pool and are
/// reissued (backlog allocations intact) instead of reallocated.
pub(crate) struct RelState<M> {
    /// Directed-link key → index into `slab`.
    links: OpenTable<u32>,
    /// Touched links in insertion order.
    slab: Vec<RelLink<M>>,
    /// Scrubbed entries awaiting reuse by a later trial.
    pool: Vec<RelLink<M>>,
}

impl<M> Default for RelState<M> {
    fn default() -> Self {
        RelState {
            links: OpenTable::new(),
            slab: Vec::new(),
            pool: Vec::new(),
        }
    }
}

impl<M> RelState<M> {
    /// Clears all protocol state for a new trial, keeping the table,
    /// slab, and backlog allocations (payloads are dropped).
    pub(crate) fn reset(&mut self) {
        self.links.clear();
        self.links.end_trial();
        // drain() keeps the slab's capacity; scrubbed entries keep their
        // backlog capacity inside the pool.
        for mut link in self.slab.drain(..) {
            link.scrub();
            self.pool.push(link);
        }
    }

    /// The state of directed link `key`, created on first touch.
    pub(crate) fn entry(&mut self, key: u64) -> &mut RelLink<M> {
        let idx = match self.links.get(key) {
            Some(idx) => idx as usize,
            None => {
                let idx = self.slab.len();
                self.links.insert(key, idx as u32);
                let mut link = self.pool.pop().unwrap_or_else(|| RelLink::new(key));
                link.key = key;
                self.slab.push(link);
                idx
            }
        };
        &mut self.slab[idx]
    }

    /// The state of directed link `key`, if it has been touched.
    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut RelLink<M>> {
        let idx = self.links.get(key)?;
        Some(&mut self.slab[idx as usize])
    }

    /// Touched links in insertion order (deterministic; see module docs).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &RelLink<M>> {
        self.slab.iter()
    }

    /// Estimated resident bytes of the protocol state: the key table, the
    /// slab and pool entries, and every retained backlog buffer.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<RelLink<M>>() as u64;
        let backlog_slot = std::mem::size_of::<M>() as u64;
        let backlogs: u64 = self
            .slab
            .iter()
            .chain(self.pool.iter())
            .map(|l| l.backlog.capacity() as u64 * backlog_slot)
            .sum();
        self.links.resident_bytes()
            + (self.slab.capacity() + self.pool.capacity()) as u64 * entry
            + backlogs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_created_once_and_keep_insertion_order() {
        let mut rel: RelState<u32> = RelState::default();
        rel.entry(42).next_seq = 7;
        rel.entry(7).next_seq = 1;
        assert_eq!(rel.entry(42).next_seq, 7);
        let keys: Vec<u64> = rel.iter().map(|l| l.key).collect();
        assert_eq!(keys, vec![42, 7]);
        assert!(rel.get_mut(42).is_some());
        assert!(rel.get_mut(99).is_none());
    }

    #[test]
    fn reset_pools_entries_and_keeps_backlog_capacity() {
        let mut rel: RelState<u32> = RelState::default();
        for i in 0..4 {
            let l = rel.entry(i);
            l.backlog.extend(0..16);
        }
        let bytes_before = rel.resident_bytes();
        rel.reset();
        assert!(rel.get_mut(0).is_none());
        // The pooled entries still hold their backlog buffers (the pool's
        // own spine may add a little on top).
        assert!(rel.resident_bytes() >= bytes_before);
        // Reissued entries come back scrubbed.
        let l = rel.entry(2);
        assert_eq!(l.key, 2);
        assert_eq!(l.next_seq, 0);
        assert!(l.inflight.is_none());
        assert!(l.backlog.is_empty());
        assert!(l.backlog.capacity() >= 16, "backlog buffer was reissued");
        assert_eq!(l.delivered_hi, 0);
    }
}
