//! Serial reference evaluation.
//!
//! Two oracles, both exact and both single-machine:
//!
//! * [`evaluate`] — a binding-table hash join that processes atoms left to
//!   right. Worst-case exponential like any join, but it is the ground
//!   truth every distributed algorithm in this workspace is tested
//!   against, so clarity beats cleverness.
//! * [`yannakakis_serial`] — the Yannakakis algorithm over a width-1 GHD
//!   (slides 64–77): upward semijoin phase, downward semijoin phase, then
//!   a bottom-up join phase, running in `O(IN + OUT)`.
//!
//! [`join_size`] counts `OUT` with the same tree in `O(IN)`, without
//! building a single output tuple.
//!
//! Both produce the full natural join with output schema `x₀ … x_{k-1}`
//! under **bag semantics** (tests compare canonical set forms when an
//! algorithm is only set-equivalent).

use crate::ghd::Ghd;
use crate::query::{Query, Var};
use parqp_data::{FastMap, Relation, Value};

/// Evaluate `q` over `rels` (one relation per atom, positionally).
///
/// # Panics
/// Panics if `rels.len() != q.num_atoms()` or an atom's arity disagrees
/// with its relation.
pub fn evaluate(q: &Query, rels: &[Relation]) -> Relation {
    check_inputs(q, rels);
    // Bindings over the variables bound so far, in `bound` order.
    let mut bound: Vec<Var> = Vec::new();
    let mut bindings: Vec<Vec<Value>> = vec![Vec::new()];

    for (atom, rel) in q.atoms().iter().zip(rels) {
        let shared: Vec<usize> = atom
            .vars
            .iter()
            .enumerate()
            .filter_map(|(pos, v)| bound.contains(v).then_some(pos))
            .collect();
        let fresh: Vec<usize> = atom
            .vars
            .iter()
            .enumerate()
            .filter_map(|(pos, v)| (!bound.contains(v)).then_some(pos))
            .collect();
        let bound_idx_of_shared: Vec<usize> = shared
            .iter()
            .map(|&pos| {
                bound
                    .iter()
                    .position(|&b| b == atom.vars[pos])
                    .expect("shared is bound")
            })
            .collect();

        // Build: key = shared positions (in `shared` order) → fresh values.
        let mut table: FastMap<Vec<Value>, Vec<Vec<Value>>> = FastMap::default();
        for row in rel.iter() {
            let key: Vec<Value> = shared.iter().map(|&p| row[p]).collect();
            let val: Vec<Value> = fresh.iter().map(|&p| row[p]).collect();
            table.entry(key).or_default().push(val);
        }

        let mut next = Vec::new();
        for b in &bindings {
            let key: Vec<Value> = bound_idx_of_shared.iter().map(|&i| b[i]).collect();
            if let Some(matches) = table.get(&key) {
                for m in matches {
                    let mut nb = b.clone();
                    nb.extend_from_slice(m);
                    next.push(nb);
                }
            }
        }
        bindings = next;
        bound.extend(fresh.iter().map(|&p| atom.vars[p]));
        if bindings.is_empty() {
            return Relation::new(q.num_vars());
        }
    }

    bindings_to_relation(q.num_vars(), &bound, bindings)
}

/// The Yannakakis algorithm over a width-1 GHD whose bags each carry
/// exactly one atom (a join tree). `O(IN + OUT)`.
///
/// # Panics
/// Panics if the GHD is not a width-1 join tree of `q`, or input shapes
/// disagree with the query.
pub fn yannakakis_serial(q: &Query, rels: &[Relation], tree: &Ghd) -> Relation {
    let bags = join_tree_bags(q, rels, tree, "serial Yannakakis");
    // Working copies, one per bag (bag b covers exactly atom λ[0]).
    let schema: Vec<Vec<Var>> = bags.iter().map(|(vars, _)| vars.to_vec()).collect();
    let mut work: Vec<Relation> = bags.iter().map(|&(_, rel)| rel.clone()).collect();

    let order = tree.topological_order(); // parents before children
                                          // Upward semijoin phase: leaves to root.
    for &b in order.iter().rev() {
        if let Some(parent) = tree.parent[b] {
            work[parent] = semijoin(&work[parent], &schema[parent], &work[b], &schema[b]);
        }
    }
    // Downward semijoin phase: root to leaves.
    for &b in &order {
        if let Some(parent) = tree.parent[b] {
            work[b] = semijoin(&work[b], &schema[b], &work[parent], &schema[parent]);
        }
    }

    // Join phase: fold children into parents, bottom-up. Each partial
    // result carries its variable schema.
    let mut partial: Vec<Option<(Relation, Vec<Var>)>> =
        work.into_iter().zip(schema).map(Some).collect();
    for &b in order.iter().rev() {
        if let Some(parent) = tree.parent[b] {
            let (child_rel, child_vars) = partial[b].take().expect("child joined once");
            let (parent_rel, parent_vars) = partial[parent].take().expect("parent present");
            partial[parent] = Some(join_on_schemas(
                &parent_rel,
                &parent_vars,
                &child_rel,
                &child_vars,
            ));
        }
    }

    // Combine roots (forest ⇒ Cartesian product across components).
    let mut acc: Option<(Relation, Vec<Var>)> = None;
    for &b in &order {
        if tree.parent[b].is_none() {
            let (rel, sch) = partial[b].take().expect("root present");
            acc = Some(match acc {
                None => (rel, sch),
                Some((a_rel, a_sch)) => join_on_schemas(&a_rel, &a_sch, &rel, &sch),
            });
        }
    }
    let (rel, sch) = acc.expect("at least one root");
    let rows: Vec<Vec<Value>> = rel.iter().map(<[Value]>::to_vec).collect();
    bindings_to_relation(q.num_vars(), &sch, rows)
}

/// `|q(rels)|` under bag semantics, counted over a width-1 join tree in
/// `O(IN)` without materialising the output: a counting Yannakakis pass.
/// Bottom-up, each tuple's weight is the product over its children of
/// the summed child weights on matching keys; `OUT` is the product over
/// the roots of their summed weights. Dangling tuples weigh 0, so no
/// semijoin phase is needed. Saturates at `u128::MAX`.
///
/// # Panics
/// As [`yannakakis_serial`].
pub fn join_size(q: &Query, rels: &[Relation], tree: &Ghd) -> u128 {
    let bags = join_tree_bags(q, rels, tree, "join_size");
    let mut weight: Vec<Vec<u128>> = bags.iter().map(|(_, rel)| vec![1; rel.len()]).collect();
    let mut key = Vec::new();
    for &b in tree.topological_order().iter().rev() {
        let Some(parent) = tree.parent[b] else {
            continue;
        };
        let ((parent_vars, parent_rel), (child_vars, child_rel)) = (bags[parent], bags[b]);
        let shared = shared_columns(parent_vars, child_vars);
        // Sum the child's weights per key, then scale each parent tuple.
        let mut sums: FastMap<Vec<Value>, u128> = FastMap::default();
        for (row, &w) in child_rel.iter().zip(&weight[b]) {
            key_into(&mut key, row, shared.iter().map(|&(_, c)| c));
            match sums.get_mut(&key) {
                Some(sum) => *sum = sum.saturating_add(w),
                None => {
                    sums.insert(key.clone(), w);
                }
            }
        }
        for (row, w) in parent_rel.iter().zip(&mut weight[parent]) {
            key_into(&mut key, row, shared.iter().map(|&(p, _)| p));
            *w = w.saturating_mul(sums.get(&key).copied().unwrap_or(0));
        }
    }
    tree.parent
        .iter()
        .zip(&weight)
        .filter(|(parent, _)| parent.is_none())
        .map(|(_, root)| root.iter().fold(0, |acc: u128, &w| acc.saturating_add(w)))
        .fold(1, u128::saturating_mul)
}

/// Check that `tree` is a width-1 join tree of `q` with one bag per
/// atom, and return each bag's atom as `(variables, relation)`.
fn join_tree_bags<'a>(
    q: &'a Query,
    rels: &'a [Relation],
    tree: &Ghd,
    caller: &str,
) -> Vec<(&'a [Var], &'a Relation)> {
    check_inputs(q, rels);
    tree.validate(q).expect("invalid GHD");
    assert!(tree.width() == 1, "{caller} requires a width-1 join tree");
    assert_eq!(
        tree.bags.len(),
        q.num_atoms(),
        "join tree must have one bag per atom"
    );
    tree.bags
        .iter()
        .map(|bag| {
            let a = bag.atoms[0];
            (q.atoms()[a].vars.as_slice(), &rels[a])
        })
        .collect()
}

/// The `(left, right)` column pairs of the variables two schemas share,
/// in left column order.
fn shared_columns(left_vars: &[Var], right_vars: &[Var]) -> Vec<(usize, usize)> {
    left_vars
        .iter()
        .enumerate()
        .filter_map(|(lp, v)| right_vars.iter().position(|rv| rv == v).map(|rp| (lp, rp)))
        .collect()
}

/// Overwrite `key` with `row`'s values at `cols`.
fn key_into(key: &mut Vec<Value>, row: &[Value], cols: impl Iterator<Item = usize>) {
    key.clear();
    key.extend(cols.map(|c| row[c]));
}

/// `left ⋉ right`: keep the tuples of `left` whose shared variables with
/// `right` (per the two schemas) match some tuple of `right`.
pub fn semijoin(
    left: &Relation,
    left_vars: &[Var],
    right: &Relation,
    right_vars: &[Var],
) -> Relation {
    let shared = shared_columns(left_vars, right_vars);
    if shared.is_empty() {
        return if right.is_empty() {
            Relation::new(left.arity())
        } else {
            left.clone()
        };
    }
    let mut keys: parqp_data::FastSet<Vec<Value>> = parqp_data::FastSet::default();
    for row in right.iter() {
        keys.insert(shared.iter().map(|&(_, rp)| row[rp]).collect());
    }
    left.filter(|row| keys.contains(&shared.iter().map(|&(lp, _)| row[lp]).collect::<Vec<_>>()))
}

/// Natural join of two relations with explicit variable schemas; returns
/// the joined relation and its schema (left schema ++ fresh right vars).
fn join_on_schemas(
    left: &Relation,
    left_vars: &[Var],
    right: &Relation,
    right_vars: &[Var],
) -> (Relation, Vec<Var>) {
    let shared = shared_columns(left_vars, right_vars);
    let fresh: Vec<usize> = (0..right_vars.len())
        .filter(|&rp| !left_vars.contains(&right_vars[rp]))
        .collect();

    let mut table: FastMap<Vec<Value>, Vec<Vec<Value>>> = FastMap::default();
    for row in right.iter() {
        let key: Vec<Value> = shared.iter().map(|&(_, rp)| row[rp]).collect();
        let val: Vec<Value> = fresh.iter().map(|&p| row[p]).collect();
        table.entry(key).or_default().push(val);
    }

    let mut schema = left_vars.to_vec();
    schema.extend(fresh.iter().map(|&p| right_vars[p]));
    let mut out = Relation::new(schema.len());
    let mut buf = Vec::with_capacity(schema.len());
    for row in left.iter() {
        let key: Vec<Value> = shared.iter().map(|&(lp, _)| row[lp]).collect();
        if let Some(matches) = table.get(&key) {
            for m in matches {
                buf.clear();
                buf.extend_from_slice(row);
                buf.extend_from_slice(m);
                out.push(&buf);
            }
        }
    }
    (out, schema)
}

fn check_inputs(q: &Query, rels: &[Relation]) {
    assert_eq!(rels.len(), q.num_atoms(), "one relation per atom required");
    for (a, r) in q.atoms().iter().zip(rels) {
        assert_eq!(a.arity(), r.arity(), "arity mismatch for atom {}", a.name);
    }
}

fn bindings_to_relation(num_vars: usize, schema: &[Var], rows: Vec<Vec<Value>>) -> Relation {
    assert_eq!(schema.len(), num_vars, "result must bind every variable");
    let mut order = vec![0usize; num_vars];
    for (i, &v) in schema.iter().enumerate() {
        order[v] = i;
    }
    let mut out = Relation::with_capacity(num_vars, rows.len());
    let mut buf = vec![0; num_vars];
    for r in rows {
        for (v, slot) in buf.iter_mut().enumerate() {
            *slot = r[order[v]];
        }
        out.push(&buf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghd::Ghd;

    #[test]
    fn two_way_join_basic() {
        let q = Query::two_way();
        let r = Relation::from_rows(2, [[1, 10], [2, 10], [3, 20]]);
        let s = Relation::from_rows(2, [[10, 100], [20, 200], [20, 201]]);
        let out = evaluate(&q, &[r, s]);
        let mut rows = out.to_rows();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![1, 10, 100],
                vec![2, 10, 100],
                vec![3, 20, 200],
                vec![3, 20, 201]
            ]
        );
    }

    #[test]
    fn triangle_finds_triangles() {
        let q = Query::triangle();
        // Triangle on 1-2-3 plus a stray edge.
        let r = Relation::from_rows(2, [[1, 2], [1, 9]]);
        let s = Relation::from_rows(2, [[2, 3]]);
        let t = Relation::from_rows(2, [[3, 1]]);
        let out = evaluate(&q, &[r, s, t]);
        assert_eq!(out.to_rows(), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn product_is_cartesian() {
        let q = Query::product();
        let r = Relation::from_rows(1, [[1], [2]]);
        let s = Relation::from_rows(1, [[7], [8], [9]]);
        let out = evaluate(&q, &[r, s]);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn bag_semantics_multiplicities() {
        let q = Query::two_way();
        let r = Relation::from_rows(2, [[1, 5], [1, 5]]);
        let s = Relation::from_rows(2, [[5, 9]]);
        assert_eq!(evaluate(&q, &[r, s]).len(), 2);
    }

    #[test]
    fn empty_input_empty_output() {
        let q = Query::triangle();
        let e = Relation::new(2);
        let out = evaluate(&q, &[e.clone(), e.clone(), e]);
        assert!(out.is_empty());
        assert_eq!(out.arity(), 3);
    }

    #[test]
    fn semijoin_filters() {
        let l = Relation::from_rows(2, [[1, 2], [3, 4]]);
        let r = Relation::from_rows(2, [[2, 7]]);
        let out = semijoin(&l, &[0, 1], &r, &[1, 5]);
        assert_eq!(out.to_rows(), vec![vec![1, 2]]);
    }

    #[test]
    fn semijoin_disjoint_schemas_checks_emptiness() {
        let l = Relation::from_rows(1, [[1], [2]]);
        let nonempty = Relation::from_rows(1, [[9]]);
        let empty = Relation::new(1);
        assert_eq!(semijoin(&l, &[0], &nonempty, &[1]).len(), 2);
        assert_eq!(semijoin(&l, &[0], &empty, &[1]).len(), 0);
    }

    #[test]
    fn yannakakis_matches_evaluate_on_chain() {
        let q = Query::chain(3);
        let rels: Vec<Relation> = (0..3)
            .map(|i| parqp_data::generate::uniform(2, 60, 12, i as u64))
            .collect();
        let tree = Ghd::join_tree(&q).expect("chains are acyclic");
        let fast = yannakakis_serial(&q, &rels, &tree);
        let slow = evaluate(&q, &rels);
        assert_eq!(fast.canonical(), slow.canonical());
    }

    #[test]
    fn yannakakis_matches_evaluate_on_slide64() {
        let q = Query::slide64_tree();
        let rels: Vec<Relation> = (0..5)
            .map(|i| parqp_data::generate::uniform(2, 40, 8, 100 + i as u64))
            .collect();
        let tree = Ghd::join_tree(&q).expect("tree query is acyclic");
        let fast = yannakakis_serial(&q, &rels, &tree);
        let slow = evaluate(&q, &rels);
        assert_eq!(fast.canonical(), slow.canonical());
    }

    #[test]
    fn join_size_counts_bags_forests_and_dangling_tuples() {
        let q = Query::star(3);
        let tree = Ghd::join_tree(&q).expect("stars are acyclic");
        // Center 1: 2 × 1 × 2 duplicates-included matches; center 2 dangles.
        let r1 = Relation::from_rows(2, [[1, 10], [1, 10], [2, 20]]);
        let r2 = Relation::from_rows(2, [[1, 30], [2, 40]]);
        let r3 = Relation::from_rows(2, [[1, 50], [1, 51]]);
        let rels = [r1, r2, r3];
        assert_eq!(join_size(&q, &rels, &tree), 4);
        assert_eq!(yannakakis_serial(&q, &rels, &tree).len(), 4);
        let prod = Query::product();
        let forest = Ghd::join_tree(&prod).expect("acyclic");
        let r = Relation::from_rows(1, [[1], [2], [3]]);
        let s = Relation::from_rows(1, [[7], [8]]);
        assert_eq!(join_size(&prod, &[r.clone(), s], &forest), 6);
        assert_eq!(join_size(&prod, &[r, Relation::new(1)], &forest), 0);
    }

    #[test]
    fn yannakakis_star_with_dangling_tuples() {
        let q = Query::star(3);
        // Center value 1 joins everywhere; 2 dangles (absent from R3).
        let r1 = Relation::from_rows(2, [[1, 10], [2, 20]]);
        let r2 = Relation::from_rows(2, [[1, 30], [2, 40]]);
        let r3 = Relation::from_rows(2, [[1, 50]]);
        let tree = Ghd::join_tree(&q).expect("stars are acyclic");
        let out = yannakakis_serial(&q, &[r1.clone(), r2.clone(), r3.clone()], &tree);
        let expect = evaluate(&q, &[r1, r2, r3]);
        assert_eq!(out.canonical(), expect.canonical());
        assert_eq!(out.len(), 1);
    }
}
