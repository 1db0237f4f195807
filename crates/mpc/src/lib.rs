//! # parqp-mpc — a deterministic simulator of the Massively Parallel Communication model
//!
//! The MPC model (slides 5–20 of the tutorial) is a simplified BSP model:
//!
//! * `p` shared-nothing servers hold the input, `O(IN/p)` tuples each;
//! * an algorithm runs in **rounds**; in each round every server performs
//!   arbitrary local computation and then exchanges messages with every
//!   other server (all-to-all communication);
//! * the two cost parameters are the **load** `L` — the maximum number of
//!   tuples (or words) received by any server in any round — and the
//!   number of **rounds** `r`. Total communication is `C = Σ` messages.
//!
//! This crate implements the model as an in-process simulator. Algorithms
//! keep per-server state in ordinary `Vec`s (index = server id) and use
//! [`Cluster::exchange`] to perform one communication round. The cluster
//! records, for every round, exactly how many tuples and words each server
//! received, from which [`LoadReport`] derives `L`, `r` and `C` — the very
//! quantities every theorem in the paper is stated in.
//!
//! The simulator is fully deterministic: all hashing goes through the
//! seeded [`hash::HashFamily`], so repeated runs produce identical loads.
//!
//! ## Modules
//!
//! * [`cluster`] — the cluster, exchanges, and round accounting;
//! * [`batch`] — [`RowBatch`], the flat, arity-strided wire format for
//!   relation tuples ([`Exchange::send_row`]);
//! * [`error`] — typed invariant violations ([`MpcError`]); every
//!   panicking entry point has a `try_*` sibling returning these;
//! * [`exec`] — serial vs parallel local compute ([`ExecMode`]):
//!   install a mode and [`Cluster::map`](cluster::Cluster::map) runs
//!   per-server compute closures on a sanctioned worker pool, with
//!   every exchange boundary a barrier and results merged in server
//!   order, so both modes are byte-identical;
//! * [`stats`] — per-round statistics and the final [`LoadReport`];
//! * [`grid`] — `p₁ × … × p_k` hypercube topologies with `*`-broadcast
//!   (the HyperCube algorithm's addressing primitive, slide 35);
//! * [`hash`] — a seeded family of independent hash functions;
//! * [`weight`] — how many tuples and words a message counts for;
//! * [`trace`] — re-export of `parqp-trace`: install a
//!   [`trace::Recorder`] (e.g. via [`trace::Recorder::capture`]) and
//!   every recorded round also emits structured [`trace::TraceEvent`]s
//!   (per-server loads, send fan-out, grid topology). Only this crate
//!   emits communication events (lint rule PQ105); algorithm crates
//!   label their phases with [`trace::span`];
//! * [`faults`] — re-export of `parqp-faults`: install a
//!   [`faults::FaultPlan`] (e.g. via [`faults::capture`]) and scheduled
//!   crashes, message drops/duplications, and stragglers fire at exact
//!   logical rounds as each exchange finishes. Injection is transparent
//!   to algorithms — delivered inboxes are always the post-recovery
//!   view — while recovery overhead (replayed rounds, retransmissions,
//!   replica redistribution) is charged honestly to the same
//!   [`LoadReport`] ledger and emitted as `FaultInjected`/
//!   `RecoveryBegin`/`RecoveryEnd` trace events. Only this crate calls
//!   the fault-runtime round hooks (lint rule PQ106).

pub mod batch;
pub mod cluster;
pub mod error;
pub mod exec;
pub mod grid;
pub mod hash;
pub mod stats;
pub mod weight;

pub use parqp_faults as faults;
pub use parqp_metrics as metrics;
pub use parqp_store as store;
pub use parqp_trace as trace;

pub use batch::RowBatch;
pub use cluster::{Cluster, Exchange};
pub use error::MpcError;
pub use exec::ExecMode;
pub use grid::Grid;
pub use hash::HashFamily;
pub use stats::{LoadReport, RoundStats};
pub use weight::Weight;
