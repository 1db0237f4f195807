//! # parqp-join — the MPC join algorithm suite
//!
//! Every join algorithm of the tutorial, implemented on the
//! [`parqp_mpc`] simulator. All algorithms share one calling convention:
//! they take the input relations whole, distribute them round-robin (the
//! model's free initial placement), run their communication rounds, and
//! return a [`JoinRun`] with per-server outputs plus the `(L, r, C)`
//! [`parqp_mpc::LoadReport`].
//!
//! * [`twoway`] — parallel hash join (slide 23), broadcast join
//!   (slide 32), the Cartesian-product grid (slide 28), the
//!   skew-resilient join combining them (slide 30), and the sort-based
//!   join over PSRS (slide 31);
//! * [`multiway`] — the HyperCube / Shares one-round algorithm with
//!   LP-optimal shares (slides 34–44);
//! * [`skewhc`] — SkewHC: heavy/light residual queries, each on its own
//!   server group (slides 47–51);
//! * [`plans`] — multi-round iterative binary-join plans, the baseline
//!   "what systems do in practice" (slides 57, 97);
//! * [`gym`] — GYM, distributed Yannakakis over a join tree: vanilla
//!   `r = O(n)` and per-level-parallel `r = O(d)` variants, plus
//!   generalized width-`w` GHD execution (slides 78–95);
//! * [`hl`] — Heavy-Light + Semijoins: slide 58's skew-insensitive
//!   semijoin pipeline and slide 59's triangle decomposition;
//! * [`aggregate`] — distributed GROUP BY / SUM (hash, combiner and
//!   reduction-tree strategies, slides 52 and 125);
//! * [`subgraph`] — a BiGJoin-style vertex-at-a-time expansion join for
//!   (cyclic) subgraph queries (slide 97's practice section);
//! * [`baselines`] — the deliberately naive strategies of the slide 13
//!   cost table (ship-everything, ring rotation);
//! * [`local`] — the one local join step (a chained hash index probed in
//!   order) that every server runs on its fragment.

pub mod aggregate;
pub mod baselines;
pub mod common;
pub mod gym;
pub mod hl;
pub mod local;
pub mod multiway;
pub mod plans;
pub mod skewhc;
pub mod subgraph;
pub mod twoway;

pub use common::JoinRun;
