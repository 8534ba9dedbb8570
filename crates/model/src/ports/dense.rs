//! The dense backend: flat `u16` tables grouped by the index they are
//! read through.
//!
//! Every table is a dense row-major array allocated once in
//! [`DenseStore::new`]. Besides the forward mapping `(u, i) → (v, j)` and
//! the peer-to-port index `(u, v) → i`, each node keeps one *partitioned
//! permutation* over its peers and one over its ports — the piece that
//! makes uniform resolution O(1). The first `degree(u)` entries of `u`'s
//! peer permutation are its connected peers and the remainder the
//! unconnected ones, so a uniform fresh peer is a single indexed draw
//! (partial Fisher–Yates) instead of rejection sampling, and connecting a
//! pair is two O(1) swaps. The port permutation is maintained identically
//! for free-port draws. Every operation is O(1) with no hashing — which is
//! why this backend stays the default wherever its `Θ(n²)` entries fit.
//!
//! # Layout
//!
//! The fields live in three tables, one per index they are read through,
//! so the fields an access needs together share a cache line:
//!
//! * **position-indexed** `u·(n−1) + k` → [`PosEntry`]: the peer and the
//!   port at position `k` of `u`'s two permutations;
//! * **peer-indexed** `u·n + v` → [`PeerEntry`]: the port of `u` leading
//!   to `v`, and `v`'s position in `u`'s peer permutation;
//! * **port-indexed** `u·(n−1) + p` → [`PortEntry`]: the endpoint port `p`
//!   leads to, and `p`'s position in `u`'s port permutation.
//!
//! Fixing a link therefore writes, per endpoint, seven entries on at most
//! seven cache lines: the new peer's and port's entries (each written
//! whole — link and new position together), the displaced peer's and
//! port's positions, and the three position slots of the two swaps, the
//! boundary slot `degree(u)` serving both. One table per field would
//! spread the same writes over ten lines, each entry twice as wide.
//!
//! Every entry is a node, port or position below `n`, stored as a `u16`
//! with [`u16::MAX`] as the one "unassigned" sentinel: 14 bytes per
//! ordered node pair, and a hard limit of `n ≤` [`MAX_N`] `= 65535`
//! (checked by the facade before anything is allocated).

use super::{Endpoint, Port, PortStore};
use crate::error::ModelError;
use crate::NodeIndex;

/// Sentinel for "unassigned" entries of every table.
const EMPTY: u16 = u16::MAX;

/// The largest `n` the `u16` tables can represent: node indices, ports and
/// positions must all stay below the sentinel.
pub(super) const MAX_N: usize = EMPTY as usize;

/// Position `k` of a node's two partitioned permutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PosEntry {
    /// The peer at position `k` of the peer permutation.
    peer: u16,
    /// The port at position `k` of the port permutation.
    port: u16,
}

/// What node `u` knows about peer `v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PeerEntry {
    /// `u`'s port connecting to `v`, [`EMPTY`] while unconnected.
    port: u16,
    /// `v`'s position in `u`'s peer permutation ([`EMPTY`] on the unused
    /// diagonal `v = u`).
    pos: u16,
}

/// What node `u` knows about its own port `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PortEntry {
    /// The node `p` leads to, [`EMPTY`] while unassigned.
    peer: u16,
    /// The port it arrives on at `peer`, [`EMPTY`] while unassigned.
    peer_port: u16,
    /// `p`'s position in `u`'s port permutation.
    pos: u16,
}

/// Narrows a node, port or position to a table entry (`n ≤ MAX_N` makes
/// every such value fit below the sentinel).
#[inline]
fn entry(x: usize) -> u16 {
    debug_assert!(x < MAX_N);
    x as u16
}

/// The flat-table storage backend (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct DenseStore {
    n: usize,
    /// Row `u` (length `n − 1`): the peer permutation (all nodes `≠ u`,
    /// connected ones first) beside the port permutation (assigned ports
    /// first); both are partitioned at `degree[u]`.
    by_pos: Vec<PosEntry>,
    /// Row `u` (length `n`), indexed by peer.
    by_peer: Vec<PeerEntry>,
    /// Row `u` (length `n − 1`), indexed by port.
    by_port: Vec<PortEntry>,
    /// Links incident to each node (also: assigned ports of each node).
    degree: Vec<u32>,
    /// Total number of links fixed so far.
    links: usize,
    /// Nodes whose rows differ from the pristine state (pushed on the
    /// 0 → 1 degree transition); exactly the rows [`DenseStore::reset`]
    /// must restore.
    dirty: Vec<u32>,
}

impl DenseStore {
    /// Allocates and eagerly initializes the flat tables for an `n`-node
    /// clique (`2 ≤ n ≤ MAX_N`, validated by the facade).
    pub(super) fn new(n: usize) -> Self {
        assert!(
            (2..=MAX_N).contains(&n),
            "dense store needs 2 ≤ n ≤ {MAX_N}"
        );
        let ports = n - 1;
        let mut by_pos = Vec::with_capacity(n * ports);
        let mut by_peer = Vec::with_capacity(n * n);
        let mut by_port = Vec::with_capacity(n * ports);
        for u in 0..n {
            // Row u enumerates 0..n skipping u, in ascending order.
            by_pos.extend((0..ports).map(|k| PosEntry {
                peer: entry(k + usize::from(k >= u)),
                port: entry(k),
            }));
            by_peer.extend((0..n).map(|v| PeerEntry {
                port: EMPTY,
                pos: if v == u {
                    EMPTY
                } else {
                    entry(v - usize::from(v > u))
                },
            }));
            by_port.extend((0..ports).map(|p| PortEntry {
                peer: EMPTY,
                peer_port: EMPTY,
                pos: entry(p),
            }));
        }
        DenseStore {
            n,
            by_pos,
            by_peer,
            by_port,
            degree: vec![0; n],
            links: 0,
            dirty: Vec::new(),
        }
    }

    #[inline]
    fn pos_row(&self, u: usize) -> &[PosEntry] {
        &self.by_pos[u * (self.n - 1)..(u + 1) * (self.n - 1)]
    }

    /// Fixes `u`'s half of the link `(u, p) ↔ (v, q)`: records the
    /// endpoint, then swaps peer `v` and port `p` into the connected
    /// prefix of `u`'s partitioned permutations (two O(1)
    /// partial-Fisher–Yates steps sharing the boundary slot).
    fn attach(&mut self, u: usize, p: usize, v: usize, q: usize) {
        let d = self.degree[u] as usize;
        if d == 0 {
            self.dirty.push(u as u32);
        }
        let row = u * (self.n - 1);
        let peer = &mut self.by_peer[u * self.n + v];
        let k = peer.pos as usize;
        debug_assert!(k >= d, "promoting an already-connected peer");
        *peer = PeerEntry {
            port: entry(p),
            pos: entry(d),
        };
        let port = &mut self.by_port[row + p];
        let kp = port.pos as usize;
        debug_assert!(kp >= d, "promoting an already-assigned port");
        *port = PortEntry {
            peer: entry(v),
            peer_port: entry(q),
            pos: entry(d),
        };

        let boundary = self.by_pos[row + d];
        self.by_pos[row + k].peer = boundary.peer;
        self.by_peer[u * self.n + boundary.peer as usize].pos = entry(k);
        self.by_pos[row + kp].port = boundary.port;
        self.by_port[row + boundary.port as usize].pos = entry(kp);
        self.by_pos[row + d] = PosEntry {
            peer: entry(v),
            port: entry(p),
        };
        self.degree[u] += 1;
    }
}

impl PortStore for DenseStore {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    // The implicit clique's port space: every node owns `n − 1` ports
    // and any `v ≠ u` is a potential peer.
    #[inline]
    fn ports_of(&self, _u: NodeIndex) -> usize {
        self.n - 1
    }

    #[inline]
    fn topo_adjacent(&self, u: NodeIndex, v: NodeIndex) -> bool {
        u != v
    }

    #[inline]
    fn link_count(&self) -> usize {
        self.links
    }

    #[inline]
    fn degree(&self, u: NodeIndex) -> usize {
        self.degree[u.0] as usize
    }

    #[inline]
    fn connected(&self, u: NodeIndex, v: NodeIndex) -> bool {
        self.by_peer[u.0 * self.n + v.0].port != EMPTY
    }

    #[inline]
    fn peer(&self, u: NodeIndex, p: Port) -> Option<Endpoint> {
        let e = self.by_port[u.0 * (self.n - 1) + p.0];
        (e.peer != EMPTY).then_some(Endpoint {
            node: NodeIndex(e.peer as usize),
            port: Port(e.peer_port as usize),
        })
    }

    #[inline]
    fn port_to(&self, u: NodeIndex, v: NodeIndex) -> Option<Port> {
        let p = self.by_peer[u.0 * self.n + v.0].port;
        (p != EMPTY).then_some(Port(p as usize))
    }

    #[inline]
    fn peer_at_pos(&self, u: NodeIndex, k: usize) -> NodeIndex {
        NodeIndex(self.pos_row(u.0)[k].peer as usize)
    }

    #[inline]
    fn port_at_pos(&self, u: NodeIndex, k: usize) -> Port {
        Port(self.pos_row(u.0)[k].port as usize)
    }

    fn insert_link(&mut self, u: NodeIndex, pu: Port, v: NodeIndex, pv: Port) {
        self.attach(u.0, pu.0, v.0, pv.0);
        self.attach(v.0, pv.0, u.0, pu.0);
        self.links += 1;
    }

    /// Un-connects everything, returning the store to the exact state
    /// [`DenseStore::new`] produces — without reallocating any table.
    ///
    /// Cost is proportional to the state actually touched since
    /// construction (or the previous reset): only the rows of nodes with at
    /// least one link are visited, and each such row is restored in
    /// O(degree) — the partitioned permutations are swapped back to
    /// canonical ascending order by chasing displacement cycles, every swap
    /// of which parks one entry in its home slot for good.
    fn reset(&mut self) {
        let (n, ports) = (self.n, self.n - 1);
        let dirty = std::mem::take(&mut self.dirty);
        for &u in &dirty {
            let u = u as usize;
            let d = self.degree[u] as usize;
            let row = u * ports;
            let peers = u * n;
            // Clear the endpoint and peer-index entries of every link of
            // u. The connected peers and assigned ports are exactly the
            // first d entries of the partitioned permutations.
            for k in 0..d {
                let PosEntry { peer, port } = self.by_pos[row + k];
                self.by_peer[peers + peer as usize].port = EMPTY;
                let e = &mut self.by_port[row + port as usize];
                e.peer = EMPTY;
                e.peer_port = EMPTY;
            }
            self.degree[u] = 0;
            // Restore the canonical permutations. Every displacement cycle
            // passes through the connected prefix `0..d` (each `attach`
            // swapped the then-boundary position with a position at or
            // beyond it), so chasing cycles from the prefix restores the
            // whole row in O(d) swaps.
            for k in 0..d {
                loop {
                    let v = self.by_pos[row + k].peer as usize;
                    let home = v - usize::from(v > u);
                    if home == k {
                        break;
                    }
                    let w = self.by_pos[row + home].peer;
                    self.by_pos[row + k].peer = w;
                    self.by_pos[row + home].peer = entry(v);
                    self.by_peer[peers + v].pos = entry(home);
                    self.by_peer[peers + w as usize].pos = entry(k);
                }
                loop {
                    let p = self.by_pos[row + k].port as usize;
                    if p == k {
                        break;
                    }
                    let q = self.by_pos[row + p].port;
                    self.by_pos[row + k].port = q;
                    self.by_pos[row + p].port = entry(p);
                    self.by_port[row + p].pos = entry(p);
                    self.by_port[row + q as usize].pos = entry(k);
                }
            }
        }
        self.links = 0;
    }

    fn validate(&self) -> Result<(), ModelError> {
        let fail = |u: usize, p: usize, reason: &'static str| {
            Err(ModelError::InvalidResolution {
                node: NodeIndex(u),
                port: Port(p),
                reason,
            })
        };
        let (n, ports) = (self.n, self.n - 1);
        let mut counted = 0usize;
        for u in 0..n {
            let mut assigned = 0usize;
            for i in 0..ports {
                let Some(Endpoint { node: v, port: j }) = self.peer(NodeIndex(u), Port(i)) else {
                    if self.by_port[u * ports + i].peer_port != EMPTY {
                        return fail(u, i, "half-assigned port");
                    }
                    continue;
                };
                counted += 1;
                assigned += 1;
                if v.0 == u {
                    return fail(u, i, "self-link");
                }
                let back = self.peer(v, j);
                if back
                    != Some(Endpoint {
                        node: NodeIndex(u),
                        port: Port(i),
                    })
                {
                    return fail(u, i, "asymmetric link");
                }
                if self.by_peer[u * n + v.0].port != entry(i) {
                    return fail(u, i, "peer index out of sync");
                }
            }
            if assigned != self.degree[u] as usize {
                return fail(u, 0, "degree out of sync with forward table");
            }
            // The peer/port permutation rows must be partitioned exactly at
            // degree[u], with the position entries as their inverses.
            let d = self.degree[u] as usize;
            for (k, &PosEntry { peer: v, port: p }) in self.pos_row(u).iter().enumerate() {
                let peer = self.by_peer[u * n + v as usize];
                if peer.pos != entry(k) {
                    return fail(u, 0, "peer permutation/position out of sync");
                }
                if (peer.port != EMPTY) != (k < d) {
                    return fail(u, 0, "peer permutation partition broken");
                }
                let port = self.by_port[u * ports + p as usize];
                if port.pos != entry(k) {
                    return fail(u, 0, "port permutation/position out of sync");
                }
                if (port.peer != EMPTY) != (k < d) {
                    return fail(u, 0, "port permutation partition broken");
                }
            }
        }
        if counted != 2 * self.links {
            return fail(0, 0, "link count out of sync");
        }
        if let Err(reason) = super::validate_dirty_list(&self.degree, &self.dirty) {
            return fail(0, 0, reason);
        }
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        use std::mem::size_of;
        let bytes = self.by_pos.capacity() * size_of::<PosEntry>()
            + self.by_peer.capacity() * size_of::<PeerEntry>()
            + self.by_port.capacity() * size_of::<PortEntry>()
            + (self.degree.capacity() + self.dirty.capacity()) * size_of::<u32>();
        bytes as u64
    }
}
