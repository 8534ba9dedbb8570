//! Lower-bound machinery for clique leader election, reproducing the bound
//! landscape of *Improved Tradeoffs for Leader Election* (PODC 2023).
//!
//! Lower-bound proofs are existential — they quantify over all algorithms —
//! so they cannot be "run" directly. What *can* be built, and what this
//! crate provides, is every constructive ingredient those proofs use,
//! turned into executable machinery:
//!
//! * [`formulas`] — every bound of Table 1 as a pure function, so
//!   experiments can print measured-vs-theory columns and the relationships
//!   between bounds (who dominates where, where crossovers sit) become
//!   testable facts;
//! * [`commgraph`] — the round-`r` communication graph of Definition 3.1,
//!   its weakly connected components, and component *capacity*
//!   (Definition 3.2), built live from the synchronous engine's trace
//!   events by the [`GraphObserver`] sink;
//! * [`adversary`] — the adaptive port-mapping adversary at the heart of
//!   Lemma 3.9: keep every newly opened port inside the sender's block of
//!   the current decomposition, merging `2^t` blocks when one saturates, so
//!   components cannot grow faster than the `2^{σ_r}` envelope;
//! * [`single_send`] — the message-preserving transformation of
//!   Lemma 3.12 from arbitrary multicast algorithms to *single-send*
//!   algorithms (at most one message per node per round), which underpins
//!   the Ω(n·log n) bound of Theorem 3.11;
//! * [`isolation`] — restricted execution prefixes (Definition 3.4) and
//!   the terminating/expanding component dichotomy (Definition 3.5),
//!   including the Lemma 3.6 gluing construction that turns terminating
//!   components into a two-leader contradiction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod commgraph;
pub mod formulas;
pub mod isolation;
pub mod single_send;

pub use adversary::ComponentAdversary;
pub use commgraph::{CommGraph, GraphObserver};
pub use isolation::{IsolationHarness, IsolationVerdict};
pub use single_send::SingleSend;
