//! The communication graph of Definition 3.1 and component capacities of
//! Definition 3.2, built live from an execution.
//!
//! The round-`r` communication graph has a directed edge `(u, v)` iff `u`
//! sent a message over a port connected to `v` in some round `r' < r`.
//! Lemma 3.9's adversary and the Theorem 3.8 experiments reason about the
//! *weakly connected components* of this graph: nodes in one component may
//! have correlated states, nodes in different components provably behave
//! independently.

use std::sync::{Arc, Mutex, MutexGuard};

use clique_model::topology::{Dsu, TimedArc};
use clique_model::trace::{At, TraceEvent, TraceSink};
use clique_model::NodeIndex;

/// A time-stamped directed communication graph over `n` nodes.
///
/// Edge records and the union–find machinery are the shared
/// [`clique_model::topology`] types, so the lower-bound layer and the
/// topology generators agree on one vocabulary for graphs over node
/// indices.
#[derive(Debug, Clone)]
pub struct CommGraph {
    n: usize,
    /// One arc per message, in send order.
    edges: Vec<TimedArc>,
}

impl CommGraph {
    /// Creates an empty communication graph over `n` nodes.
    pub fn new(n: usize) -> Self {
        CommGraph {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Records that `src` sent a message that reached `dst` during `round`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn record(&mut self, round: usize, src: NodeIndex, dst: NodeIndex) {
        assert!(src.0 < self.n && dst.0 < self.n, "endpoint out of range");
        self.edges.push(TimedArc {
            round: round as u32,
            src: src.0 as u32,
            dst: dst.0 as u32,
        });
    }

    /// Total messages recorded.
    pub fn message_count(&self) -> usize {
        self.edges.len()
    }

    /// The weakly connected components of the round-`r` graph (edges from
    /// rounds `< r` only, per Definition 3.1), as sorted node lists; the
    /// result is sorted by each component's smallest node.
    pub fn components_at(&self, round: usize) -> Vec<Vec<NodeIndex>> {
        let mut dsu = Dsu::new(self.n);
        for arc in &self.edges {
            if (arc.round as usize) < round {
                dsu.union(arc.src as usize, arc.dst as usize);
            }
        }
        dsu.groups()
            .into_iter()
            .map(|c| c.into_iter().map(NodeIndex).collect())
            .collect()
    }

    /// Size of the largest component of the round-`r` graph.
    pub fn largest_component_at(&self, round: usize) -> usize {
        self.components_at(round)
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
    }

    /// The *capacity* (Definition 3.2) of a node set in the round-`r`
    /// graph: the largest `λ` such that every member has at least `λ`
    /// members it has no edge to or from. Returns 0 for sets of size ≤ 1.
    pub fn capacity_at(&self, round: usize, members: &[NodeIndex]) -> usize {
        if members.len() <= 1 {
            return 0;
        }
        let in_set: std::collections::HashSet<u32> = members.iter().map(|u| u.0 as u32).collect();
        // Count, per member, how many *other* members it touches.
        let mut touched: std::collections::HashMap<u32, std::collections::HashSet<u32>> =
            std::collections::HashMap::new();
        for arc in &self.edges {
            if (arc.round as usize) < round
                && in_set.contains(&arc.src)
                && in_set.contains(&arc.dst)
            {
                touched.entry(arc.src).or_default().insert(arc.dst);
                touched.entry(arc.dst).or_default().insert(arc.src);
            }
        }
        members
            .iter()
            .map(|u| {
                let t = touched.get(&(u.0 as u32)).map_or(0, |s| s.len());
                members.len() - 1 - t
            })
            .min()
            .unwrap_or(0)
    }

    /// Whether `members` is isolated in the round-`r` graph: no edge
    /// connects a member to a non-member (in either direction).
    pub fn is_isolated_at(&self, round: usize, members: &[NodeIndex]) -> bool {
        let in_set: std::collections::HashSet<u32> = members.iter().map(|u| u.0 as u32).collect();
        self.edges.iter().all(|arc| {
            (arc.round as usize) >= round || in_set.contains(&arc.src) == in_set.contains(&arc.dst)
        })
    }

    /// The last round with a recorded message (0 if none).
    pub fn last_round(&self) -> usize {
        self.edges
            .iter()
            .map(|arc| arc.round as usize)
            .max()
            .unwrap_or(0)
    }
}

/// A [`TraceSink`] that builds a [`CommGraph`] from the synchronous
/// engine's `Send` events as the execution runs.
///
/// Clones share one graph: install a clone with the builder's `.trace(...)`
/// and read the graph through the one you keep, between steps or after
/// the run.
///
/// # Example
///
/// ```
/// use clique_model::{Decision, Id};
/// use clique_sync::{Context, Received, SyncNode, SyncSimBuilder};
/// use le_bounds::GraphObserver;
///
/// struct Quiet;
/// impl SyncNode for Quiet {
///     type Message = ();
///     fn send_phase(&mut self, _: &mut Context<'_, ()>) {}
///     fn receive_phase(&mut self, _: &mut Context<'_, ()>, _: &[Received<()>]) {}
///     fn decision(&self) -> Decision { Decision::Leader }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let obs = GraphObserver::new(8);
/// SyncSimBuilder::new(8)
///     .trace(Box::new(obs.clone()))
///     .build(|_, _| Quiet)?
///     .run()?;
/// assert_eq!(obs.graph().message_count(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphObserver {
    graph: Arc<Mutex<CommGraph>>,
}

impl GraphObserver {
    /// Creates an observer for an `n`-node execution.
    pub fn new(n: usize) -> Self {
        GraphObserver {
            graph: Arc::new(Mutex::new(CommGraph::new(n))),
        }
    }

    /// The communication graph built so far. Drop the guard before the
    /// engine's next step: the installed clone locks the same graph.
    pub fn graph(&self) -> MutexGuard<'_, CommGraph> {
        self.graph.lock().expect("graph poisoned")
    }
}

impl TraceSink for GraphObserver {
    fn event(&mut self, ev: &TraceEvent) {
        if let TraceEvent::Send {
            at: At::Round(round),
            src,
            dst,
            ..
        } = *ev
        {
            self.graph().record(
                round as usize,
                NodeIndex(src as usize),
                NodeIndex(dst as usize),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with(n: usize, edges: &[(usize, usize, usize)]) -> CommGraph {
        let mut g = CommGraph::new(n);
        for &(r, u, v) in edges {
            g.record(r, NodeIndex(u), NodeIndex(v));
        }
        g
    }

    #[test]
    fn round_one_graph_is_empty() {
        // Definition 3.1: G_1 contains only edges sent strictly before
        // round 1, i.e. none.
        let g = graph_with(4, &[(1, 0, 1), (2, 1, 2)]);
        let comps = g.components_at(1);
        assert_eq!(comps.len(), 4, "G_1 must be all singletons");
        assert_eq!(g.largest_component_at(1), 1);
    }

    #[test]
    fn edges_appear_one_round_late() {
        let g = graph_with(4, &[(1, 0, 1), (2, 1, 2)]);
        // Round 2 sees only the round-1 edge.
        let comps = g.components_at(2);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeIndex(0), NodeIndex(1)]);
        // Round 3 sees both.
        assert_eq!(g.largest_component_at(3), 3);
    }

    #[test]
    fn weak_connectivity_ignores_direction() {
        // Two directed edges into node 2 still merge all three nodes.
        let g = graph_with(3, &[(1, 0, 2), (1, 1, 2)]);
        assert_eq!(g.largest_component_at(2), 3);
    }

    #[test]
    fn capacity_counts_untouched_members() {
        // Component {0,1,2,3} with a single 0→1 edge: 0 and 1 each still
        // have 2 untouched members; 2 and 3 have 3.
        let g = graph_with(4, &[(1, 0, 1)]);
        let members: Vec<NodeIndex> = (0..4).map(NodeIndex).collect();
        assert_eq!(g.capacity_at(2, &members), 2);
        // Before the edge exists the capacity is full.
        assert_eq!(g.capacity_at(1, &members), 3);
        // Duplicate and reverse edges do not double-count.
        let g2 = graph_with(4, &[(1, 0, 1), (1, 1, 0), (1, 0, 1)]);
        assert_eq!(g2.capacity_at(2, &members), 2);
    }

    #[test]
    fn capacity_of_small_sets_is_zero() {
        let g = graph_with(4, &[]);
        assert_eq!(g.capacity_at(1, &[NodeIndex(0)]), 0);
        assert_eq!(g.capacity_at(1, &[]), 0);
    }

    #[test]
    fn isolation_detects_boundary_edges() {
        let g = graph_with(5, &[(1, 0, 1), (2, 2, 3)]);
        let left = [NodeIndex(0), NodeIndex(1)];
        assert!(g.is_isolated_at(3, &left));
        // {1, 2} is cut by both edges.
        assert!(!g.is_isolated_at(3, &[NodeIndex(1), NodeIndex(2)]));
        // At round 1 nothing has happened, so everything is isolated.
        assert!(g.is_isolated_at(1, &[NodeIndex(1), NodeIndex(2)]));
    }

    #[test]
    fn last_round_and_count() {
        let g = graph_with(5, &[(1, 0, 1), (7, 2, 3)]);
        assert_eq!(g.last_round(), 7);
        assert_eq!(g.message_count(), 2);
        assert_eq!(CommGraph::new(3).last_round(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_nodes() {
        let mut g = CommGraph::new(2);
        g.record(1, NodeIndex(0), NodeIndex(5));
    }

    #[test]
    fn observer_builds_graph_from_execution() {
        use clique_model::{Decision, Id};
        use clique_sync::{Context, Received, SyncNode, SyncSimBuilder};

        /// Round 1: everyone broadcasts its ID; elects max.
        struct B {
            me: Id,
            best: Id,
            d: Decision,
        }
        impl SyncNode for B {
            type Message = Id;
            fn send_phase(&mut self, ctx: &mut Context<'_, Id>) {
                if ctx.round() == 1 {
                    for p in ctx.all_ports() {
                        ctx.send(p, self.me);
                    }
                }
            }
            fn receive_phase(&mut self, ctx: &mut Context<'_, Id>, inbox: &[Received<Id>]) {
                for m in inbox {
                    self.best = self.best.max(m.msg);
                }
                if ctx.round() == 1 {
                    self.d = if self.best == self.me {
                        Decision::Leader
                    } else {
                        Decision::non_leader()
                    };
                }
            }
            fn decision(&self) -> Decision {
                self.d
            }
        }

        let n = 6;
        let obs = GraphObserver::new(n);
        let outcome = SyncSimBuilder::new(n)
            .seed(2)
            .trace(Box::new(obs.clone()))
            .build(|id, _| B {
                me: id,
                best: id,
                d: Decision::Undecided,
            })
            .unwrap()
            .run()
            .unwrap();
        outcome.validate_implicit().unwrap();
        let g = obs.graph();
        assert_eq!(g.message_count(), n * (n - 1));
        // After the broadcast round the graph is fully connected.
        assert_eq!(g.largest_component_at(2), n);
        // ... but during round 1 it was still empty (Definition 3.1).
        assert_eq!(g.largest_component_at(1), 1);
    }

    #[test]
    fn shared_graph_reads_between_steps_match_the_final_graph() {
        use crate::adversary::ComponentAdversary;
        use clique_sync::{NullObserver, SyncSimBuilder};
        use leader_election::sync::improved_tradeoff;

        // The Lemma 3.9 adversary keeps components small early on, so the
        // per-round reads differ from one another.
        let n = 128;
        let cfg = improved_tradeoff::Config::with_rounds(7);
        let (adversary, _) = ComponentAdversary::new(n, 4.0);
        let obs = GraphObserver::new(n);
        let mut sim = SyncSimBuilder::new(n)
            .seed(5)
            .resolver(Box::new(adversary))
            .trace(Box::new(obs.clone()))
            .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))
            .unwrap();
        let mut live = Vec::new();
        loop {
            let more = sim.step(&mut NullObserver).unwrap();
            live.push(obs.graph().largest_component_at(sim.round() + 1));
            if !more {
                break;
            }
        }
        drop(sim);
        let g = obs.graph();
        assert!(g.message_count() > 0);
        assert!(
            live[0] < live[live.len() - 1],
            "components grow over the run: {live:?}"
        );
        for (r, &largest) in (1..).zip(&live) {
            assert_eq!(largest, g.largest_component_at(r + 1), "round {r}");
        }
    }
}
