//! Property tests: every distributed join equals the serial oracle on
//! random inputs, across random cluster sizes and seeds.

use parqp_data::Relation;
use parqp_join::local::local_evaluate;
use parqp_join::{gym, multiway, plans, skewhc, twoway};
use parqp_query::{evaluate, parse_query, Ghd, Query};
use parqp_testkit::prelude::*;

/// A random binary relation with a controllable duplicate rate: small
/// domains produce heavy values, exercising the skew paths.
fn arb_pairs(max_rows: usize) -> impl Strategy<Value = Relation> {
    (1usize..=max_rows, 1u64..40).prop_flat_map(|(rows, domain)| {
        collection::vec((0..domain, 0..domain), rows)
            .prop_map(|pairs| Relation::from_rows(2, pairs.iter().map(|&(a, b)| [a, b])))
    })
}

fn arb_p() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(8), Just(16)]
}

/// The shapes the local kernel is checked on: triangle, chains, a star,
/// the 4-cycle, the product, the semijoin pair, ternary atoms joined on
/// a two-column key, and a chain whose atom order makes a Cartesian
/// step before the atom that connects it.
fn kernel_shapes() -> Vec<Query> {
    let parsed = |text: &str| parse_query(text).expect("valid query");
    vec![
        Query::triangle(),
        Query::chain(3),
        Query::chain(4),
        Query::star(3),
        Query::cycle(4),
        Query::product(),
        Query::semijoin_pair(),
        parsed("R(x, y, z), S(y, z, w)"),
        parsed("R(x, y), T(z, w), S(y, z)"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    #[test]
    fn local_evaluate_equals_oracle_row_for_row(
        shape in 0usize..9,
        seed in 0u64..10_000,
        rows in 0usize..20,
        domain in 1u64..8,
        emptied in 0usize..8,
    ) {
        // Small domains make duplicate rows and heavy keys; `emptied`
        // empties one atom's relation about half the time.
        let q = kernel_shapes().swap_remove(shape);
        let rels: Vec<Relation> = q
            .atoms()
            .iter()
            .enumerate()
            .map(|(i, atom)| {
                let h = parqp_mpc::HashFamily::new(seed + i as u64, atom.arity());
                let n = if i == emptied { 0 } else { rows };
                let mut rel = Relation::new(atom.arity());
                for j in 0..n as u64 {
                    let row: Vec<u64> = (0..atom.arity()).map(|c| h.digest(c, j) % domain).collect();
                    rel.push(&row);
                }
                rel
            })
            .collect();
        prop_assert_eq!(local_evaluate(&q, &rels), evaluate(&q, &rels));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn twoway_algorithms_equal_oracle(
        r in arb_pairs(120),
        s in arb_pairs(120),
        p in arb_p(),
        seed in 0u64..1000,
    ) {
        let expect = parqp_join::common::twoway_oracle(&r, 1, &s, 0);
        let canon = expect.canonical();
        let hash = twoway::hash_join(&r, 1, &s, 0, p, seed);
        prop_assert_eq!(hash.gathered().canonical(), canon.clone());
        prop_assert_eq!(hash.output_size(), expect.len(), "bag semantics");
        let skew = twoway::skew_join(&r, 1, &s, 0, p, seed);
        prop_assert_eq!(skew.gathered().canonical(), canon.clone());
        prop_assert_eq!(skew.output_size(), expect.len());
        let sort = twoway::sort_merge_join(&r, 1, &s, 0, p, seed);
        prop_assert_eq!(sort.gathered().canonical(), canon.clone());
        prop_assert_eq!(sort.output_size(), expect.len());
        let bcast = twoway::broadcast_join(&r, 1, &s, 0, p);
        prop_assert_eq!(bcast.gathered().canonical(), canon);
        prop_assert_eq!(bcast.output_size(), expect.len());
    }

    #[test]
    fn triangle_engines_equal_oracle(
        r in arb_pairs(60),
        s in arb_pairs(60),
        t in arb_pairs(60),
        p in arb_p(),
        seed in 0u64..1000,
    ) {
        let q = Query::triangle();
        let rels = vec![r, s, t];
        let expect = evaluate(&q, &rels).canonical();
        if rels.iter().all(|rel| !rel.is_empty()) {
            let hc = multiway::hypercube(&q, &rels, p, seed);
            prop_assert_eq!(hc.gathered().canonical(), expect.clone());
        }
        let sk = skewhc::skewhc(&q, &rels, p, seed);
        prop_assert_eq!(sk.gathered().canonical(), expect.clone());
        let bp = plans::binary_join_plan(&q, &rels, p, seed, None);
        prop_assert_eq!(bp.gathered().canonical(), expect);
    }

    #[test]
    fn gym_equals_oracle_on_random_chains(
        n in 2usize..5,
        p in arb_p(),
        seed in 0u64..1000,
        rows in 5usize..60,
        domain in 1u64..25,
    ) {
        let q = Query::chain(n);
        let rels: Vec<Relation> = (0..n)
            .map(|i| {
                let mut rel = Relation::new(2);
                let h = parqp_mpc::HashFamily::new(seed + i as u64, 2);
                for j in 0..rows {
                    rel.push(&[
                        h.digest(0, j as u64) % domain,
                        h.digest(1, j as u64) % domain,
                    ]);
                }
                rel
            })
            .collect();
        let expect = evaluate(&q, &rels).canonical();
        let tree = Ghd::join_tree(&q).expect("chains are acyclic");
        for optimized in [false, true] {
            let run = gym::gym(&q, &rels, &tree, p, seed, optimized);
            prop_assert_eq!(run.gathered().canonical(), expect.clone(),
                "optimized={}", optimized);
        }
        let ghd = Ghd::chain_balanced(n);
        let run = gym::gym_ghd(&q, &rels, &ghd, p, seed);
        prop_assert_eq!(run.gathered().canonical(), expect);
    }

    #[test]
    fn loads_conserved_and_bounded(
        r in arb_pairs(100),
        s in arb_pairs(100),
        p in arb_p(),
        seed in 0u64..100,
    ) {
        let run = twoway::hash_join(&r, 1, &s, 0, p, seed);
        // Conservation: total received = |R| + |S| (each tuple shipped once).
        prop_assert_eq!(run.report.total_tuples() as usize, r.len() + s.len());
        // Max load can never exceed the total.
        prop_assert!(run.report.max_load_tuples() <= run.report.total_tuples());
    }

    #[test]
    fn aggregation_strategies_agree(
        rel in arb_pairs(200),
        p in arb_p(),
        fanin in 2usize..5,
    ) {
        use parqp_join::aggregate::*;
        let expect = group_sum_oracle(&rel, 0, 1);
        for run in [
            hash_group_sum(&rel, 0, 1, p, 3),
            combiner_group_sum(&rel, 0, 1, p, 3),
            tree_group_sum(&rel, 0, 1, p, fanin),
        ] {
            let mut got = run.gathered();
            got.sort();
            prop_assert_eq!(got, expect.clone());
        }
    }
}
