//! The local join step every server runs on its own fragment.
//!
//! HyperCube and SkewHC route the tuples in one round and then evaluate
//! the whole query on each server's fragment (slides 34–47); binary
//! plans and GYM's join phases join two relations per round. All of
//! them reduce to one step, [`JoinStep::apply`]: index the right side on
//! its key columns, probe the left rows in order, and append
//! `left ++ right[fresh]` for every match, right matches in row order.
//! [`local_evaluate`] folds that step over a query's atoms.
//!
//! The index is a head map from the key to its first row plus per-row
//! `next` chains, built back to front so every chain runs in row order.
//! A multi-column key is folded to one `u64` and verified on probe.

use parqp_data::{FastMap, Relation, Value};
use parqp_query::{Query, Var};
use std::borrow::Cow;

const END: usize = usize::MAX;

/// Odd multiplier for folding a multi-column key (FxHash's constant).
const FOLD: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The key of `row` on `cols` as one word: the value itself for a
/// single column (exact), a multiplicative fold for several (verified
/// on probe), `0` for none (a Cartesian step: every row matches).
#[inline]
fn fold(row: &[Value], cols: &[usize]) -> u64 {
    match cols {
        [] => 0,
        [c] => row[*c],
        _ => cols.iter().fold(0, |acc, &c| {
            (acc.rotate_left(5) ^ row[c]).wrapping_mul(FOLD)
        }),
    }
}

/// Whether `a` on `a_cols` and `b` on `b_cols` hold the same values.
#[inline]
fn same_key(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
    a_cols.iter().zip(b_cols).all(|(&i, &j)| a[i] == b[j])
}

/// A hash index over a relation's key columns.
#[derive(Debug)]
pub struct KeyIndex<'a> {
    rel: &'a Relation,
    cols: Vec<usize>,
    head: FastMap<u64, usize>,
    next: Vec<usize>,
}

impl<'a> KeyIndex<'a> {
    /// Index `rel` on the key columns `cols` (none: one chain of every
    /// row).
    pub fn new(rel: &'a Relation, cols: &[usize]) -> Self {
        let mut head: FastMap<u64, usize> =
            FastMap::with_capacity_and_hasher(rel.len(), Default::default());
        let mut next = vec![END; rel.len()];
        for (link, (i, row)) in next.iter_mut().zip(rel.into_iter().enumerate()).rev() {
            if let Some(prev) = head.insert(fold(row, cols), i) {
                *link = prev;
            }
        }
        Self {
            rel,
            cols: cols.to_vec(),
            head,
            next,
        }
    }

    /// Index key-only rows on all of their columns.
    pub fn keys(rel: &'a Relation) -> Self {
        Self::new(rel, &(0..rel.arity()).collect::<Vec<_>>())
    }

    /// The positions of the indexed rows whose key equals `probe`'s
    /// values at `probe_cols` (paired with the index's key columns), in
    /// row order.
    pub fn positions<'s>(
        &'s self,
        probe: &'s [Value],
        probe_cols: &'s [usize],
    ) -> impl Iterator<Item = usize> + 's {
        let exact = self.cols.len() <= 1;
        let mut i = self
            .head
            .get(&fold(probe, probe_cols))
            .copied()
            .unwrap_or(END);
        std::iter::from_fn(move || {
            while i != END {
                let at = i;
                i = self.next[at];
                if exact || same_key(self.rel.row(at), &self.cols, probe, probe_cols) {
                    return Some(at);
                }
            }
            None
        })
    }

    /// The matching rows themselves, in row order.
    pub fn matches<'s>(
        &'s self,
        probe: &'s [Value],
        probe_cols: &'s [usize],
    ) -> impl Iterator<Item = &'a [Value]> + 's {
        self.positions(probe, probe_cols).map(|i| self.rel.row(i))
    }

    /// Whether some indexed row matches `probe` on `probe_cols`.
    pub fn contains(&self, probe: &[Value], probe_cols: &[usize]) -> bool {
        self.positions(probe, probe_cols).next().is_some()
    }
}

/// How a right relation over `right_vars` joins onto left rows over
/// `left_vars`: the shared variables' columns on each side, in left
/// column order, and the right columns that bind fresh variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStep {
    /// Left key columns.
    pub left_key: Vec<usize>,
    /// Right key columns, paired with `left_key`.
    pub right_key: Vec<usize>,
    /// Right columns appended to each output row, in column order.
    pub fresh: Vec<usize>,
}

impl JoinStep {
    /// The step joining `right_vars` onto `left_vars`.
    pub fn between(left_vars: &[Var], right_vars: &[Var]) -> Self {
        let (left_key, right_key) = left_vars
            .iter()
            .enumerate()
            .filter_map(|(l, v)| right_vars.iter().position(|rv| rv == v).map(|r| (l, r)))
            .unzip();
        let fresh = (0..right_vars.len())
            .filter(|&r| !left_vars.contains(&right_vars[r]))
            .collect();
        Self {
            left_key,
            right_key,
            fresh,
        }
    }

    /// The output schema: `left_vars` then the fresh right variables.
    pub fn out_vars(&self, left_vars: &[Var], right_vars: &[Var]) -> Vec<Var> {
        let mut vars = left_vars.to_vec();
        vars.extend(self.fresh.iter().map(|&r| right_vars[r]));
        vars
    }

    /// `left ⋈ right`: for every left row in order, every right row with
    /// an equal key in row order, contributing `left ++ right[fresh]`.
    /// No key columns make a Cartesian step.
    pub fn apply(&self, left: &Relation, right: &Relation) -> Relation {
        let mut out = Relation::new(left.arity() + self.fresh.len());
        if left.is_empty() || right.is_empty() {
            return out;
        }
        let index = KeyIndex::new(right, &self.right_key);
        let mut buf = Vec::with_capacity(out.arity());
        for lrow in left {
            for rrow in index.matches(lrow, &self.left_key) {
                buf.clear();
                buf.extend_from_slice(lrow);
                buf.extend(self.fresh.iter().map(|&c| rrow[c]));
                out.push(&buf);
            }
        }
        out
    }
}

/// Reorder the columns of `rel`, whose column `i` binds `vars[i]`, to
/// variable order `x₀ … x_{k-1}`; a no-op when already in order.
///
/// # Panics
/// Panics if `vars` is not a permutation of `0..rel.arity()`.
pub fn to_var_order(rel: Relation, vars: &[Var]) -> Relation {
    if vars.iter().enumerate().all(|(i, &v)| i == v) {
        return rel;
    }
    let mut col_of_var = vec![usize::MAX; vars.len()];
    for (i, &v) in vars.iter().enumerate() {
        col_of_var[v] = i;
    }
    rel.project(&col_of_var)
}

/// Evaluate `query` on one server's fragments (one per atom, in atom
/// order) by folding [`JoinStep::apply`] over the atoms left to right.
/// The result is row for row the relation [`parqp_query::evaluate`] —
/// the clarity-first serial oracle — returns on the same fragments.
///
/// # Panics
/// Panics if the number of fragments differs from the number of atoms.
pub fn local_evaluate(query: &Query, fragments: &[Relation]) -> Relation {
    assert_eq!(fragments.len(), query.num_atoms(), "one fragment per atom");
    let mut atoms = query.atoms().iter().zip(fragments);
    let Some((first, rel)) = atoms.next() else {
        return Relation::new(query.num_vars());
    };
    let mut vars = first.vars.clone();
    let mut acc = Cow::Borrowed(rel);
    for (atom, rel) in atoms {
        if acc.is_empty() {
            return Relation::new(query.num_vars());
        }
        let step = JoinStep::between(&vars, &atom.vars);
        acc = Cow::Owned(step.apply(&acc, rel));
        vars = step.out_vars(&vars, &atom.vars);
    }
    to_var_order(acc.into_owned(), &vars)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_chains_run_in_row_order_and_verify_folded_keys() {
        let rel = Relation::from_rows(3, [[1, 2, 10], [1, 3, 11], [1, 2, 12], [4, 2, 13]]);
        let index = KeyIndex::new(&rel, &[0, 1]);
        let hits: Vec<Value> = index.matches(&[2, 1], &[1, 0]).map(|r| r[2]).collect();
        assert_eq!(hits, vec![10, 12]);
        assert_eq!(
            index.positions(&[1, 2], &[0, 1]).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert!(!index.contains(&[9, 9], &[0, 1]));
        let all: Vec<Value> = KeyIndex::new(&rel, &[])
            .matches(&[], &[])
            .map(|r| r[2])
            .collect();
        assert_eq!(all, vec![10, 11, 12, 13], "no key: one chain of every row");
    }

    #[test]
    fn step_appends_fresh_right_columns_in_probe_order() {
        // R(x, y) ⋈ S(z, y): key y, fresh z.
        let step = JoinStep::between(&[0, 1], &[2, 1]);
        assert_eq!(step.left_key, vec![1]);
        assert_eq!(step.right_key, vec![1]);
        assert_eq!(step.fresh, vec![0]);
        assert_eq!(step.out_vars(&[0, 1], &[2, 1]), vec![0, 1, 2]);
        let r = Relation::from_rows(2, [[1, 5], [2, 6], [3, 5]]);
        let s = Relation::from_rows(2, [[8, 5], [9, 6], [7, 5]]);
        assert_eq!(
            step.apply(&r, &s).to_rows(),
            vec![
                vec![1, 5, 8],
                vec![1, 5, 7],
                vec![2, 6, 9],
                vec![3, 5, 8],
                vec![3, 5, 7]
            ]
        );
    }

    #[test]
    fn var_order_permutes_only_when_needed() {
        let rel = Relation::from_rows(3, [[1, 2, 3]]);
        assert_eq!(to_var_order(rel.clone(), &[0, 1, 2]), rel);
        assert_eq!(to_var_order(rel, &[2, 0, 1]).to_rows(), vec![vec![2, 3, 1]]);
    }

    #[test]
    fn local_evaluate_matches_oracle_on_triangle() {
        let q = Query::triangle();
        let r = Relation::from_rows(2, [[1, 2], [1, 9], [4, 2]]);
        let s = Relation::from_rows(2, [[2, 3], [2, 3]]);
        let t = Relation::from_rows(2, [[3, 1], [3, 4]]);
        let rels = [r, s, t];
        assert_eq!(local_evaluate(&q, &rels), parqp_query::evaluate(&q, &rels));
    }
}
