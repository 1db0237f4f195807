//! Shared plumbing for the join algorithms.

use crate::local::KeyIndex;
use parqp_data::{Relation, Value};
use parqp_mpc::{LoadReport, RowBatch};

/// The result of running a distributed algorithm: per-server outputs and
/// the communication cost summary.
#[derive(Debug, Clone)]
pub struct JoinRun {
    /// Output fragment held by each server.
    pub outputs: Vec<Relation>,
    /// The `(L, r, C)` ledger of the run.
    pub report: LoadReport,
}

impl JoinRun {
    /// Concatenate the per-server outputs into one relation (test/driver
    /// convenience; the model itself leaves outputs distributed).
    pub fn gathered(&self) -> Relation {
        let arity = self.outputs.first().map_or(1, Relation::arity);
        let mut out = Relation::new(arity);
        for part in &self.outputs {
            out.extend_from(part);
        }
        out
    }

    /// Total number of output tuples across servers.
    pub fn output_size(&self) -> usize {
        self.outputs.iter().map(Relation::len).sum()
    }
}

/// Regroup one server's row-batch inbox by tag: every row that arrived
/// with tag `t` is appended to `out[t]`, in inbox order. A batch landing
/// on an empty relation is adopted without copying.
///
/// # Panics
/// Panics if a batch's tag has no slot in `out` or its arity disagrees
/// with the slot's.
pub fn append_by_tag(inbox: Vec<RowBatch>, out: &mut [Relation]) {
    for batch in inbox {
        let rel = &mut out[batch.tag() as usize];
        let rows = Relation::from_flat(batch.arity(), batch.into_values());
        if rel.is_empty() {
            assert_eq!(rel.arity(), rows.arity(), "arity mismatch in batch");
            *rel = rows;
        } else {
            rel.extend_from(&rows);
        }
    }
}

/// [`append_by_tag`] into fresh relations, one per tag `0..N` at the
/// given arities: `let [r, s] = by_tag(inbox, [2, 3]);`.
pub fn by_tag<const N: usize>(inbox: Vec<RowBatch>, arities: [usize; N]) -> [Relation; N] {
    let mut out = arities.map(Relation::new);
    append_by_tag(inbox, &mut out);
    out
}

/// The rows of a single-tag inbox (every batch tagged 0), in inbox order.
pub fn rows_of(inbox: Vec<RowBatch>, arity: usize) -> Relation {
    let [rows] = by_tag(inbox, [arity]);
    rows
}

/// Split `rel` into `p` round-robin fragments (the model's free initial
/// data placement).
pub fn scatter(rel: &Relation, p: usize) -> Vec<Relation> {
    let mut parts: Vec<Relation> = (0..p).map(|_| Relation::new(rel.arity())).collect();
    for (i, row) in rel.iter().enumerate() {
        parts[i % p].push(row);
    }
    parts
}

/// Build one output row of a two-way join in the workspace convention:
/// all of `r_row`, then `s_row` with the join column removed.
pub fn merge_rows(r_row: &[Value], s_row: &[Value], s_col: usize, buf: &mut Vec<Value>) {
    buf.clear();
    buf.extend_from_slice(r_row);
    for (i, &v) in s_row.iter().enumerate() {
        if i != s_col {
            buf.push(v);
        }
    }
}

/// Output arity of a two-way join under the [`merge_rows`] convention.
pub fn joined_arity(r_arity: usize, s_arity: usize) -> usize {
    r_arity + s_arity - 1
}

/// Local hash join of `r` and `s` on `r_col` / `s_col`, appending merged
/// rows to `out`: each `s` row in order, then its matching `r` rows in
/// order (a [`KeyIndex`] over `r`).
pub fn local_hash_join(r: &Relation, r_col: usize, s: &Relation, s_col: usize, out: &mut Relation) {
    let index = KeyIndex::new(r, &[r_col]);
    let s_key = [s_col];
    let mut buf = Vec::with_capacity(joined_arity(r.arity(), s.arity()));
    for s_row in s.iter() {
        for r_row in index.matches(s_row, &s_key) {
            merge_rows(r_row, s_row, s_col, &mut buf);
            out.push(&buf);
        }
    }
}

/// The serial two-way equi-join oracle in the same output convention.
pub fn twoway_oracle(r: &Relation, r_col: usize, s: &Relation, s_col: usize) -> Relation {
    let mut out = Relation::new(joined_arity(r.arity(), s.arity()));
    local_hash_join(r, r_col, s, s_col, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_by_tag_regroups_in_inbox_order() {
        let batch = |tag, arity, data: &[u64]| RowBatch::new(tag, arity, data.to_vec());
        let inbox = vec![
            batch(1, 3, &[7, 7, 7]),
            batch(0, 2, &[1, 2, 3, 4]),
            batch(1, 3, &[8, 8, 8]),
            batch(0, 2, &[5, 6]),
        ];
        let mut rels = [Relation::new(2), Relation::new(3), Relation::new(1)];
        append_by_tag(inbox, &mut rels);
        assert_eq!(rels[0].to_rows(), vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
        assert_eq!(rels[1].to_rows(), vec![vec![7, 7, 7], vec![8, 8, 8]]);
        assert!(rels[2].is_empty() && rels[2].arity() == 1);
    }

    #[test]
    fn local_hash_join_emits_s_order_then_r_order() {
        let r = Relation::from_rows(2, [[1, 5], [2, 6], [3, 5], [4, 5]]);
        let s = Relation::from_rows(2, [[6, 10], [5, 11], [7, 12], [5, 13]]);
        let mut out = Relation::new(3);
        local_hash_join(&r, 1, &s, 0, &mut out);
        assert_eq!(
            out.to_rows(),
            vec![
                vec![2, 6, 10],
                vec![1, 5, 11],
                vec![3, 5, 11],
                vec![4, 5, 11],
                vec![1, 5, 13],
                vec![3, 5, 13],
                vec![4, 5, 13],
            ]
        );
    }

    #[test]
    fn scatter_round_robin() {
        let r = Relation::from_rows(1, [[0], [1], [2], [3], [4]]);
        let parts = scatter(&r, 2);
        assert_eq!(parts[0].to_rows(), vec![vec![0], vec![2], vec![4]]);
        assert_eq!(parts[1].to_rows(), vec![vec![1], vec![3]]);
    }

    #[test]
    fn merge_rows_drops_join_col() {
        let mut buf = Vec::new();
        merge_rows(&[1, 2], &[2, 9], 0, &mut buf);
        assert_eq!(buf, vec![1, 2, 9]);
        merge_rows(&[1, 2], &[9, 2], 1, &mut buf);
        assert_eq!(buf, vec![1, 2, 9]);
    }

    #[test]
    fn oracle_matches_hand_computation() {
        let r = Relation::from_rows(2, [[1, 5], [2, 5], [3, 6]]);
        let s = Relation::from_rows(2, [[5, 10], [6, 11], [6, 12]]);
        let out = twoway_oracle(&r, 1, &s, 0);
        let mut rows = out.to_rows();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![1, 5, 10],
                vec![2, 5, 10],
                vec![3, 6, 11],
                vec![3, 6, 12]
            ]
        );
    }

    #[test]
    fn gathered_concats() {
        let run = JoinRun {
            outputs: vec![
                Relation::from_rows(1, [[1]]),
                Relation::from_rows(1, [[2], [3]]),
            ],
            report: LoadReport::empty(2),
        };
        assert_eq!(run.output_size(), 3);
        assert_eq!(run.gathered().len(), 3);
    }
}
