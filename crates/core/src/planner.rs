//! A heuristic planner: pick the tutorial's right algorithm per input.
//!
//! The tutorial's practical takeaway (slides 32, 46, 96) is a decision
//! procedure, not a single algorithm:
//!
//! * two atoms sharing variables → hash join; broadcast if one side is
//!   tiny; skew-resilient join when heavy hitters exist;
//! * no shared variables → Cartesian grid;
//! * multiway, skewed → SkewHC; multiway skew-free → HyperCube;
//! * acyclic with modest estimated output → GYM (the slide 78
//!   crossover).
//!
//! [`plan`] encodes those rules and [`run_plan`] executes the choice.

use crate::model;
use parqp_data::stats::heavy_hitters;
use parqp_data::Relation;
use parqp_join::{baselines, gym, multiway, plans, skewhc, twoway, JoinRun};
use parqp_query::{Ghd, Query};

/// The algorithm chosen for an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Parallel hash join (two-way, skew-free).
    HashJoin,
    /// Broadcast the small side (two-way, very asymmetric sizes).
    BroadcastJoin,
    /// Skew-resilient two-way join (heavy hitters present).
    SkewJoin,
    /// Cartesian grid (no shared variables between two atoms).
    Cartesian,
    /// One-round HyperCube (multiway, skew-free).
    HyperCube,
    /// SkewHC (multiway with heavy hitters).
    SkewHC,
    /// Distributed Yannakakis over a join tree (acyclic, small output).
    Gym,
    /// Iterative binary join plan (fallback for cyclic queries where the
    /// one-round replication would exceed the input).
    BinaryPlan,
    /// BiGJoin-style vertex-at-a-time expansion (cyclic subgraph queries
    /// with binary atoms, slide 97). Set semantics: duplicate input
    /// tuples do not multiply outputs.
    ExpansionJoin,
    /// Everything to one server — only ever "chosen" for `p == 1`.
    SingleServer,
}

/// A planning decision with its justification.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// One-sentence human-readable justification.
    pub reason: String,
}

/// Decide how to run `query` over `rels` on `p` servers.
///
/// # Panics
/// Panics if `rels.len() != query.num_atoms()`.
pub fn plan(query: &Query, rels: &[Relation], p: usize) -> Decision {
    assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
    if p == 1 {
        return Decision {
            strategy: Strategy::SingleServer,
            reason: "single server: everything is local".into(),
        };
    }
    let input: usize = rels.iter().map(Relation::len).sum();

    if query.num_atoms() == 2 {
        let shared = query.shared_vars(0, 1);
        if shared.is_empty() {
            return Decision {
                strategy: Strategy::Cartesian,
                reason: "two atoms without shared variables: product grid (slide 28)".into(),
            };
        }
        if shared.len() > 1 {
            // Two atoms sharing several variables (e.g. R(x,y) ⋈ S(y,x)):
            // the specialized two-way kernels join on one column; let the
            // HyperCube handle the composite key.
            return Decision {
                strategy: Strategy::HyperCube,
                reason: "two atoms sharing multiple variables: HyperCube on the composite key"
                    .into(),
            };
        }
        let (a, b) = (rels[0].len(), rels[1].len());
        let (small, large) = (a.min(b), a.max(b));
        if small * p <= large {
            return Decision {
                strategy: Strategy::BroadcastJoin,
                reason: format!(
                    "one side ({small}) ≤ other/p ({large}/{p}): broadcast it (slide 32)"
                ),
            };
        }
        if skewed(query, rels, p) {
            return Decision {
                strategy: Strategy::SkewJoin,
                reason: "heavy hitters on the join attribute: heavy/light split (slide 30)".into(),
            };
        }
        return Decision {
            strategy: Strategy::HashJoin,
            reason: "two-way skew-free join: hash partitioning is optimal (slide 23)".into(),
        };
    }

    // Multiway.
    if let Some(tree) = Ghd::join_tree(query) {
        // Acyclic: GYM wins when OUT is below the slide 78 crossover.
        // The simulator counts OUT exactly with a counting Yannakakis
        // pass (O(IN), nothing materialised); a real system would use
        // estimates, changing only where the switch happens, not the
        // shape of the decision.
        let tau = model::tau_star(query);
        let out = parqp_query::join_size(query, rels, &tree);
        let crossover = model::gym_crossover_output(input as f64, p as f64, tau);
        if (out as f64) < crossover {
            return Decision {
                strategy: Strategy::Gym,
                reason: format!(
                    "acyclic, OUT = {out} below the (IN+OUT)/p crossover {crossover:.0} \
                     (slide 78): GYM"
                ),
            };
        }
    }
    if skewed(query, rels, p) {
        return Decision {
            strategy: Strategy::SkewHC,
            reason: "multiway with heavy hitters: SkewHC residual queries (slide 47)".into(),
        };
    }
    let tau = model::tau_star(query);
    if Ghd::join_tree(query).is_none() && tau > 3.0 {
        // Slide 62: p^{1/τ*} speedup collapses for high-τ* queries —
        // replicating IN·p^{1−1/τ*} is worse than iterating. For subgraph
        // shapes (all-binary atoms) grow bindings one vertex at a time
        // (the BiGJoin family, slide 97); otherwise fall back to plain
        // binary join plans.
        if query.atoms().iter().all(|a| a.arity() == 2) {
            return Decision {
                strategy: Strategy::ExpansionJoin,
                reason: format!(
                    "cyclic subgraph query with τ* = {tau:.1}: one-round replication is \
                     hopeless (slide 62), expand vertex-at-a-time (slide 97)"
                ),
            };
        }
        return Decision {
            strategy: Strategy::BinaryPlan,
            reason: format!(
                "cyclic with τ* = {tau:.1}: one-round replication is hopeless (slide 62), \
                 iterate binary joins"
            ),
        };
    }
    Decision {
        strategy: Strategy::HyperCube,
        reason: "multiway skew-free: one-round HyperCube at the τ* optimum (slide 40)".into(),
    }
}

/// Whether any heavy hitters exist, per the paper's `N/p` threshold: some
/// atom column holds a value of degree at least `max(2, N/p)`, `N` the
/// atom's size. The floor of 2 keeps degree-1 values out, and such a
/// value is also heavy at SkewHC's `max(1, N/p)` threshold, so no
/// separate heavy-set pass is needed. On skew-free input this is one
/// bucket-count scan per column, no degree map.
fn skewed(query: &Query, rels: &[Relation], p: usize) -> bool {
    query.atoms().iter().zip(rels).any(|(atom, rel)| {
        let threshold = ((rel.len() / p) as u64).max(2);
        (0..atom.arity()).any(|pos| !heavy_hitters(rel, pos, threshold).is_empty())
    })
}

/// Execute a strategy (normally the one returned by [`plan`]).
///
/// # Panics
/// Panics if the strategy does not fit the query shape (e.g.
/// [`Strategy::HashJoin`] on three atoms).
pub fn run_plan(
    query: &Query,
    rels: &[Relation],
    p: usize,
    seed: u64,
    strategy: &Strategy,
) -> JoinRun {
    match strategy {
        Strategy::HashJoin | Strategy::BroadcastJoin | Strategy::SkewJoin => {
            assert_eq!(
                query.num_atoms(),
                2,
                "two-way strategy on non-two-way query"
            );
            let shared = query.shared_vars(0, 1);
            assert_eq!(shared.len(), 1, "two-way strategies join on one variable");
            let v = shared[0];
            let r_col = query.atoms()[0]
                .vars
                .iter()
                .position(|&x| x == v)
                .expect("shared");
            let s_col = query.atoms()[1]
                .vars
                .iter()
                .position(|&x| x == v)
                .expect("shared");
            let run = match strategy {
                Strategy::HashJoin => twoway::hash_join(&rels[0], r_col, &rels[1], s_col, p, seed),
                Strategy::BroadcastJoin => {
                    if rels[0].len() <= rels[1].len() {
                        twoway::broadcast_join(&rels[0], r_col, &rels[1], s_col, p)
                    } else {
                        twoway::broadcast_join(&rels[1], s_col, &rels[0], r_col, p)
                    }
                }
                _ => twoway::skew_join(&rels[0], r_col, &rels[1], s_col, p, seed),
            };
            reorder_twoway(
                query,
                run,
                r_col,
                s_col,
                matches!(strategy, Strategy::BroadcastJoin) && rels[0].len() > rels[1].len(),
            )
        }
        Strategy::Cartesian => multiway::hypercube(query, rels, p, seed),
        Strategy::HyperCube => multiway::hypercube(query, rels, p, seed),
        Strategy::SkewHC => skewhc::skewhc(query, rels, p, seed),
        Strategy::Gym => {
            let tree = Ghd::join_tree(query).expect("Gym strategy requires an acyclic query");
            gym::gym(query, rels, &tree, p, seed, true)
        }
        Strategy::BinaryPlan => plans::binary_join_plan(query, rels, p, seed, None),
        Strategy::ExpansionJoin => parqp_join::subgraph::expansion_join(query, rels, p, seed),
        Strategy::SingleServer => {
            if query.num_atoms() == 2 && query.shared_vars(0, 1).len() == 1 {
                let v = query.shared_vars(0, 1)[0];
                let r_col = query.atoms()[0]
                    .vars
                    .iter()
                    .position(|&x| x == v)
                    .expect("shared");
                let s_col = query.atoms()[1]
                    .vars
                    .iter()
                    .position(|&x| x == v)
                    .expect("shared");
                let run = baselines::naive_one_server(&rels[0], r_col, &rels[1], s_col, 1);
                reorder_twoway(query, run, r_col, s_col, false)
            } else {
                multiway::hypercube(query, rels, 1, seed)
            }
        }
    }
}

/// Convenience: plan then run.
pub fn plan_and_run(query: &Query, rels: &[Relation], p: usize, seed: u64) -> (Decision, JoinRun) {
    let d = plan(query, rels, p);
    let run = run_plan(query, rels, p, seed, &d.strategy);
    (d, run)
}

/// Reorder a two-way join's `r ++ (s − join col)` output into the
/// query's variable order `x₀ … x_{k-1}`.
fn reorder_twoway(
    query: &Query,
    run: JoinRun,
    r_col: usize,
    s_col: usize,
    swapped: bool,
) -> JoinRun {
    let (first, second, scol) = if swapped {
        (1, 0, r_col)
    } else {
        (0, 1, s_col)
    };
    let a0 = &query.atoms()[first];
    let a1 = &query.atoms()[second];
    // Output schema of the two-way algorithms: a0 vars, then a1 vars
    // minus its join position.
    let mut schema: Vec<usize> = a0.vars.clone();
    schema.extend(
        a1.vars
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != scol)
            .map(|(_, &v)| v),
    );
    let mut col_of_var = vec![0usize; query.num_vars()];
    for (i, &v) in schema.iter().enumerate() {
        col_of_var[v] = i;
    }
    let order: Vec<usize> = (0..query.num_vars()).map(|v| col_of_var[v]).collect();
    let identity = order.iter().enumerate().all(|(i, &c)| i == c);
    let outputs = run
        .outputs
        .into_iter()
        .map(|rel| {
            if rel.is_empty() {
                parqp_data::Relation::new(query.num_vars())
            } else if identity {
                rel
            } else {
                rel.project(&order)
            }
        })
        .collect();
    JoinRun {
        outputs,
        report: run.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;
    use parqp_data::stats::max_degree;
    use parqp_query::evaluate;

    fn check(q: &Query, rels: &[Relation], p: usize) -> (Decision, JoinRun) {
        let (d, run) = plan_and_run(q, rels, p, 7);
        let expect = evaluate(q, rels);
        assert_eq!(
            run.gathered().canonical(),
            expect.canonical(),
            "strategy {:?} wrong answer",
            d.strategy
        );
        (d, run)
    }

    #[test]
    fn picks_hash_join_for_uniform_two_way() {
        let q = Query::two_way();
        let rels = vec![
            generate::key_unique_pairs(500, 1, 1 << 30, 1),
            generate::key_unique_pairs(500, 0, 1 << 30, 2),
        ];
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::HashJoin);
    }

    #[test]
    fn picks_skew_join_for_skewed_two_way() {
        let q = Query::two_way();
        let rels = vec![
            generate::constant_key_pairs(400, 3, 1),
            generate::constant_key_pairs(400, 3, 0),
        ];
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::SkewJoin);
    }

    #[test]
    fn picks_broadcast_for_asymmetric() {
        let q = Query::two_way();
        let rels = vec![
            generate::uniform(2, 10, 50, 3),
            generate::uniform(2, 2000, 50, 4),
        ];
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::BroadcastJoin);
    }

    #[test]
    fn picks_cartesian_for_product() {
        let q = Query::product();
        let rels = vec![
            generate::uniform(1, 60, 500, 5),
            generate::uniform(1, 60, 500, 6),
        ];
        let (d, run) = check(&q, &rels, 16);
        assert_eq!(d.strategy, Strategy::Cartesian);
        assert_eq!(run.output_size(), 3600);
    }

    #[test]
    fn picks_hypercube_for_uniform_triangle() {
        let q = Query::triangle();
        let g = generate::uniform(2, 600, 1 << 30, 7);
        let rels = vec![g.clone(), g.clone(), g];
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::HyperCube);
    }

    #[test]
    fn picks_skewhc_for_skewed_triangle() {
        let q = Query::triangle();
        let mut g = generate::uniform(2, 300, 1 << 30, 8);
        for i in 0..200 {
            g.push(&[42, i]);
        }
        let rels = vec![g.clone(), g.clone(), g];
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::SkewHC);
    }

    #[test]
    fn picks_gym_for_selective_acyclic() {
        // Chain with key-unique relations: AGM = N but crossover ≈ p^{…}·IN.
        let q = Query::chain(3);
        let rels: Vec<Relation> = (0..3)
            .map(|i| generate::key_unique_pairs(300, (i == 0) as usize, 300, 9 + i as u64))
            .collect();
        let (d, _) = check(&q, &rels, 16);
        assert_eq!(d.strategy, Strategy::Gym, "{}", d.reason);
    }

    #[test]
    fn picks_expansion_join_for_long_cycles() {
        // Cycle-8 has τ* = 4: one-round replication is hopeless (slide 62);
        // binary atoms ⇒ grow bindings vertex-at-a-time instead.
        let q = Query::cycle(8);
        let rels: Vec<Relation> = (0..8)
            .map(|i| generate::uniform(2, 120, 40, 13 + i as u64))
            .collect();
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::ExpansionJoin, "{}", d.reason);
    }

    #[test]
    fn single_server_degenerates() {
        let q = Query::two_way();
        let rels = vec![
            generate::uniform(2, 50, 20, 11),
            generate::uniform(2, 50, 20, 12),
        ];
        let (d, _) = check(&q, &rels, 1);
        assert_eq!(d.strategy, Strategy::SingleServer);
    }

    /// The skew predicate as it was first written: the max-degree test
    /// AND a non-empty SkewHC heavy set.
    fn skewed_two_conjuncts(query: &Query, rels: &[Relation], p: usize) -> bool {
        let heavy = skewhc::heavy_values(query, rels, p);
        query.atoms().iter().zip(rels).any(|(atom, rel)| {
            let threshold = ((rel.len() / p) as u64).max(2);
            (0..atom.arity()).any(|pos| max_degree(rel, pos) >= threshold)
        }) && heavy.iter().any(|h| !h.is_empty())
    }

    #[test]
    fn single_pass_skew_test_equals_the_two_conjunct_formula() {
        let mut rng = parqp_testkit::rng::Rng::seed_from_u64(0x5eed);
        let shapes = [Query::two_way(), Query::triangle(), Query::chain(3)];
        let mut agreed = [0usize; 2];
        for case in 0..300u64 {
            let q = &shapes[(case % 3) as usize];
            let p = rng.gen_range(2..=64usize);
            let rels: Vec<Relation> = (0..q.num_atoms())
                .map(|j| {
                    let n = rng.gen_range(0..=400usize);
                    let domain = rng.gen_range(1..=100_000u64);
                    let mut rel = generate::uniform(2, n, domain, case * 8 + j as u64);
                    // Plant a hot value of random degree in a random column
                    // of every other relation.
                    let hot = if rng.gen_bool(0.5) {
                        rng.gen_range(1..=120u64)
                    } else {
                        0
                    };
                    let col = rng.gen_range(0..2usize);
                    for i in 0..hot {
                        let row = if col == 0 { [7, i] } else { [i, 7] };
                        rel.push(&row);
                    }
                    rel
                })
                .collect();
            let old = skewed_two_conjuncts(q, &rels, p);
            assert_eq!(skewed(q, &rels, p), old, "case {case}: {q} at p = {p}");
            agreed[usize::from(old)] += 1;
        }
        assert!(
            agreed.iter().all(|&n| n > 20),
            "grid covers both outcomes: {agreed:?}"
        );
    }

    #[test]
    fn identity_reorder_keeps_the_run_as_is() {
        let q = Query::two_way();
        let rels = [
            generate::uniform(2, 200, 30, 21),
            generate::uniform(2, 200, 30, 22),
        ];
        let run = twoway::hash_join(&rels[0], 1, &rels[1], 0, 4, 5);
        let reordered = reorder_twoway(&q, run.clone(), 1, 0, false);
        assert_eq!(
            reordered.outputs, run.outputs,
            "R(x,y) ⋈ S(y,z) already yields x, y, z"
        );
        // A swapped broadcast still reorders.
        let swapped = reorder_twoway(&q, run.clone(), 1, 0, true);
        assert_ne!(swapped.outputs, run.outputs);
    }

    #[test]
    fn output_in_variable_order() {
        // Join R(x,y) ⋈ S(y,z) with asymmetric columns to catch
        // reordering mistakes.
        let q = Query::two_way();
        let r = Relation::from_rows(2, [[100, 1]]);
        let s = Relation::from_rows(2, [[1, 200]]);
        let (_, run) = plan_and_run(&q, &[r, s], 4, 3);
        assert_eq!(run.gathered().to_rows(), vec![vec![100, 1, 200]]);
    }
}
