//! Planner integration: the decision procedure picks sensible strategies
//! and the chosen strategy is never grossly worse than the alternatives
//! it rejected; plus empirical validation of the analytic model.

use parqp::data::generate;
use parqp::join::{multiway, twoway};
use parqp::model;
use parqp::planner::{plan, plan_and_run, run_plan, Strategy};
use parqp::prelude::*;
use parqp_data::Relation;
use parqp_mpc::HashFamily;

#[test]
fn planner_correct_on_a_matrix_of_shapes_and_skews() {
    let cases: Vec<(Query, Vec<Relation>)> = vec![
        (
            Query::two_way(),
            vec![
                generate::uniform(2, 300, 1 << 20, 1),
                generate::uniform(2, 300, 1 << 20, 2),
            ],
        ),
        (
            Query::two_way(),
            vec![
                generate::zipf_pairs(300, 50, 1.3, 1, 3),
                generate::zipf_pairs(300, 50, 1.3, 0, 4),
            ],
        ),
        (
            Query::product(),
            vec![
                generate::uniform(1, 40, 100, 5),
                generate::uniform(1, 50, 100, 6),
            ],
        ),
        (
            Query::triangle(),
            vec![
                generate::random_symmetric_graph(40, 300, 7),
                generate::random_symmetric_graph(40, 300, 7),
                generate::random_symmetric_graph(40, 300, 7),
            ],
        ),
        (
            Query::star(3),
            (0..3)
                .map(|i| generate::key_unique_pairs(200, 0, 200, 8 + i))
                .collect(),
        ),
    ];
    for (q, rels) in cases {
        for p in [2, 8, 32] {
            let (d, run) = plan_and_run(&q, &rels, p, 42);
            let expect = parqp::query::evaluate(&q, &rels);
            assert_eq!(
                run.gathered().canonical(),
                expect.canonical(),
                "{q} at p={p}: {:?} gave a wrong answer",
                d.strategy
            );
        }
    }
}

#[test]
fn planner_never_picks_catastrophic_strategy_under_skew() {
    // Under extreme two-way skew the planner must not pick HashJoin.
    let r = generate::constant_key_pairs(1000, 7, 1);
    let s = generate::constant_key_pairs(1000, 7, 0);
    let q = Query::two_way();
    let d = plan(&q, &[r.clone(), s.clone()], 16);
    assert_ne!(d.strategy, Strategy::HashJoin, "{}", d.reason);
    // And the chosen strategy beats hash join's load by a wide margin.
    let chosen = run_plan(&q, &[r.clone(), s.clone()], 16, 3, &d.strategy);
    let hash = twoway::hash_join(&r, 1, &s, 0, 16, 3);
    assert!(chosen.report.max_load_tuples() * 2 < hash.report.max_load_tuples());
}

#[test]
fn planner_reasons_mention_slides() {
    let r = generate::uniform(2, 100, 1 << 20, 9);
    let s = generate::uniform(2, 100, 1 << 20, 10);
    let d = plan(&Query::two_way(), &[r, s], 8);
    assert!(
        d.reason.contains("slide"),
        "reasons cite the paper: {}",
        d.reason
    );
}

/// The decision (strategy and reason) on the benchmark's four `mix`
/// join shapes (seed 42, p = 27) and on the `chain-binary` observe
/// instance (seed 7). OUT is counted, not materialised; the reasons
/// quote it, so a miscount shows here.
#[test]
fn planner_pins_mix_shapes_and_chain_binary() {
    let s = |k: u64| 42u64.wrapping_add(k);
    let graph = generate::uniform(2, 7_000, 2_000, s(0));
    let zipf: Vec<Relation> = (0..3)
        .map(|i| generate::zipf_pairs(6_000, 400, 1.1, 0, s(10 + i)))
        .collect();
    let sparse: Vec<Relation> = (0..3)
        .map(|i| generate::key_unique_pairs(6_000, usize::from(i == 0), 6_000, s(20 + i)))
        .collect();
    let dense: Vec<Relation> = (0..3)
        .map(|i| generate::uniform(2, 2_000, 250, s(30 + i)))
        .collect();
    let hypercube = "multiway skew-free: one-round HyperCube at the τ* optimum (slide 40)";
    let skewhc = "multiway with heavy hitters: SkewHC residual queries (slide 47)";
    let cases: Vec<(Query, Vec<Relation>, usize, Strategy, &str)> = vec![
        (
            Query::triangle(),
            vec![graph.clone(), graph.clone(), graph],
            27,
            Strategy::HyperCube,
            hypercube,
        ),
        (Query::triangle(), zipf, 27, Strategy::SkewHC, skewhc),
        (
            Query::chain(3),
            sparse,
            27,
            Strategy::Gym,
            "acyclic, OUT = 6000 below the (IN+OUT)/p crossover 75531 (slide 78): GYM",
        ),
        (Query::chain(3), dense, 27, Strategy::HyperCube, hypercube),
    ];
    let chain_binary: Vec<Relation> = (0..3)
        .map(|i| generate::uniform(2, 800, 120, 7u64.wrapping_add(i)))
        .collect();
    let cases = cases.into_iter().chain([
        (
            Query::chain(3),
            chain_binary.clone(),
            8,
            Strategy::HyperCube,
            hypercube,
        ),
        (
            Query::chain(3),
            chain_binary.clone(),
            27,
            Strategy::HyperCube,
            hypercube,
        ),
        (Query::chain(3), chain_binary, 64, Strategy::SkewHC, skewhc),
    ]);
    for (q, rels, p, strategy, reason) in cases {
        let d = plan(&q, &rels, p);
        assert_eq!(
            (&d.strategy, d.reason.as_str()),
            (&strategy, reason),
            "{q:?} at p = {p}"
        );
        if let Some(tree) = Ghd::join_tree(&q) {
            let out = parqp::query::join_size(&q, &rels, &tree);
            assert_eq!(out, parqp::query::evaluate(&q, &rels).len() as u128);
        }
    }
}

#[test]
fn chernoff_bound_validated_empirically() {
    // Hash-partition a no-skew input many times; the frequency of
    // exceeding (1+ε)·IN/p must not beat the Chernoff bound of slide 24.
    let input = 20_000u64;
    let p = 16usize;
    let eps = 0.5;
    let trials = 60u32;
    let mut exceed = 0u32;
    for seed in 0..trials {
        let h = HashFamily::new(u64::from(seed), 1);
        let mut counts = vec![0u64; p];
        for v in 0..input {
            counts[h.hash(0, v, p)] += 1;
        }
        let max = *counts.iter().max().expect("nonempty");
        if (max as f64) >= (1.0 + eps) * input as f64 / p as f64 {
            exceed += 1;
        }
    }
    let bound = model::hash_partition_tail_bound(input as f64, p as f64, 1.0, eps);
    let freq = f64::from(exceed) / f64::from(trials);
    assert!(
        freq <= bound + 0.05,
        "empirical exceedance {freq} violates Chernoff bound {bound}"
    );
}

#[test]
fn degree_threshold_marks_real_transition() {
    // Partition inputs of varying uniform degree; loads stay near IN/p
    // below the slide 26 threshold and blow past it for degrees far above.
    let input = 40_000usize;
    let p = 16usize;
    let eps = 0.3;
    let threshold = model::degree_threshold(input as f64, p as f64, eps, 0.05);
    let measure = |d: usize| -> f64 {
        let rel = generate::uniform_degree_pairs(input, d, 0, 1 << 30, d as u64);
        let run = twoway::hash_join(&rel, 0, &generate::key_unique_pairs(1, 0, 2, 1), 0, p, 7);
        run.report.max_load_tuples() as f64 / (rel.len() as f64 / p as f64)
    };
    let low = measure((threshold / 4.0).max(1.0) as usize);
    let high = measure(input / 4); // only 4 distinct keys
    assert!(low < 1.0 + 2.0 * eps, "low-degree load ratio {low}");
    assert!(high > 2.0, "high-degree load ratio {high} should blow up");
}

#[test]
fn hypercube_speedup_curve_shape() {
    // Slide 45: measured speedup approaches p^{1/τ*} from above as p
    // grows (integer shares give extra speedup at small p).
    let q = Query::triangle();
    let n = 20_000;
    let g = generate::uniform(2, n, 1 << 40, 11);
    let rels = vec![g.clone(), g.clone(), g];
    let l1 = multiway::hypercube(&q, &rels, 1, 5)
        .report
        .max_load_tuples() as f64;
    assert_eq!(l1 as u64, 3 * n as u64, "p=1 holds the whole input");
    for p in [8usize, 64, 512] {
        let l = multiway::hypercube(&q, &rels, p, 5)
            .report
            .max_load_tuples() as f64;
        let speedup = l1 / l;
        let ideal = model::hypercube_speedup(p as f64, model::tau_star(&q));
        assert!(
            speedup > 0.5 * ideal && speedup < 3.0 * ideal,
            "p={p}: speedup {speedup} vs ideal {ideal}"
        );
    }
}

#[test]
fn cli_rejects_a_data_file_narrower_than_its_atom_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("parqp_arity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let file = dir.join("two_cols.csv");
    std::fs::write(&file, "1,2\n3,4\n").expect("write data");
    for cmd in ["run", "plan"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_parqp"))
            .args([cmd, "--query", "Q(x,y,z) :- R(x,y,z)", "--data"])
            .arg(&file)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: stderr {stderr}");
        assert_eq!(
            stderr.lines().count(),
            1,
            "{cmd}: one-line error, got {stderr}"
        );
        assert!(stderr.contains("atom R has arity 3"), "{cmd}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
