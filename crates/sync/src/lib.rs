//! Synchronous lock-step round engine for the KT0 clique.
//!
//! Implements the synchronous model of *Improved Tradeoffs for Leader
//! Election* (PODC 2023), Section 2: computation proceeds in rounds
//! `r = 1, 2, ...`; in each round every awake node may send (possibly
//! distinct) messages over any of its ports, and all messages sent in round
//! `r` are received at the end of round `r`.
//!
//! # Round anatomy
//!
//! Each round runs three steps, for every node, in lock-step:
//!
//! 1. **Adversarial wake-ups** scheduled for this round fire
//!    ([`WakeSchedule`]).
//! 2. **Send phase** — every awake, unterminated node's
//!    [`SyncNode::send_phase`] runs; sends go to ports, which are lazily
//!    resolved to destinations by the configured
//!    [`PortResolver`](clique_model::ports::PortResolver).
//! 3. **Receive phase** — every awake node sees the messages that arrived
//!    this round via [`SyncNode::receive_phase`]. An asleep node with a
//!    non-empty inbox *wakes*: [`SyncNode::on_wake`] fires, then it
//!    processes the inbox; it can first send in round `r + 1`, matching the
//!    paper's "asleep ... wakes up at the end of a round if it received a
//!    message in that round" (Section 4).
//!
//! The engine halts when no awake node can act anymore (quiescence), or at a
//! configurable round cap.
//!
//! # Example
//!
//! A one-round protocol where every node broadcasts its ID and elects the
//! maximum (`Θ(n²)` messages — the trivial extreme of the paper's tradeoff):
//!
//! ```
//! use clique_model::{Decision, Id};
//! use clique_sync::{Context, Received, SyncNode, SyncSimBuilder};
//!
//! struct Broadcast {
//!     best: Id,
//!     me: Id,
//!     decision: Decision,
//! }
//!
//! impl SyncNode for Broadcast {
//!     type Message = Id;
//!     fn send_phase(&mut self, ctx: &mut Context<'_, Id>) {
//!         if ctx.round() == 1 {
//!             for p in ctx.all_ports() {
//!                 ctx.send(p, self.me);
//!             }
//!         }
//!     }
//!     fn receive_phase(&mut self, ctx: &mut Context<'_, Id>, inbox: &[Received<Id>]) {
//!         for m in inbox {
//!             self.best = self.best.max(m.msg);
//!         }
//!         if ctx.round() == 1 {
//!             self.decision = if self.best == self.me {
//!                 Decision::Leader
//!             } else {
//!                 Decision::non_leader_knowing(self.best)
//!             };
//!         }
//!     }
//!     fn decision(&self) -> Decision {
//!         self.decision
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let outcome = SyncSimBuilder::new(8)
//!     .seed(1)
//!     .build(|id, _n| Broadcast { best: id, me: id, decision: Decision::Undecided })?
//!     .run()?;
//! outcome.validate_explicit()?;
//! assert_eq!(outcome.rounds, 1);
//! assert_eq!(outcome.stats.total(), 8 * 7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod node;
pub mod outcome;
pub mod wakeup;

pub use engine::{NullObserver, SyncArena, SyncSim, SyncSimBuilder};
pub use node::{Context, Received, SyncNode, WakeCause};
pub use outcome::{ElectionViolation, HaltReason, Outcome};
pub use wakeup::WakeSchedule;
