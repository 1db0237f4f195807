//! Exact data statistics: degrees, heavy hitters, join output size.
//!
//! The skew-resilient algorithms split values at the *heavy hitter*
//! threshold — degree ≥ `IN/p` in a two-way join (slide 29) or `N/p` per
//! relation in SkewHC (slide 47). Since the simulator holds all data in
//! memory we compute these statistics exactly; a real system would use
//! sampling, which only changes the constants in the analysis.
//!
//! [`heavy_hitters`] is exact without a full degree map. A first pass
//! counts rows per hash bucket (1024 `u64` counters, L1-resident); a
//! value's degree never exceeds its bucket's count, so when no bucket
//! reaches the threshold the answer is empty after one scan. Otherwise
//! a second pass counts exact degrees only for values whose bucket
//! reached it. [`degree_counts`] builds the full histogram and is kept
//! for the callers that want one (the CLI `stats` table, join output
//! size).

use crate::fasthash::{FastMap, FastSet};
use crate::relation::{Relation, Value};

/// Hash buckets in `heavy_hitters`' upper-bound pass (a power of two).
const BUCKETS: usize = 1024;

/// The bucket hash's odd multiplier (2⁶⁴/φ, Fibonacci hashing).
const MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Column `col`'s values in row order.
fn column(rel: &Relation, col: usize) -> impl Iterator<Item = Value> + '_ {
    assert!(col < rel.arity(), "column out of range");
    rel.raw().iter().skip(col).step_by(rel.arity()).copied()
}

/// `v`'s counter among `BUCKETS`: the top bits of `v · MULT`.
fn bucket(counts: &mut [u64; BUCKETS], v: Value) -> &mut u64 {
    &mut counts[(v.wrapping_mul(MULT) >> (64 - BUCKETS.trailing_zeros())) as usize]
}

/// Exact degrees in column `col` of the values that pass `keep`.
fn degrees_where(
    rel: &Relation,
    col: usize,
    mut keep: impl FnMut(Value) -> bool,
) -> FastMap<Value, u64> {
    let mut deg: FastMap<Value, u64> = FastMap::default();
    for v in column(rel, col).filter(|&v| keep(v)) {
        *deg.entry(v).or_insert(0) += 1;
    }
    deg
}

/// Exact degree (occurrence count) of every value in column `col`.
pub fn degree_counts(rel: &Relation, col: usize) -> FastMap<Value, u64> {
    let mut deg: FastMap<Value, u64> =
        FastMap::with_capacity_and_hasher(rel.len(), Default::default());
    for v in column(rel, col) {
        *deg.entry(v).or_insert(0) += 1;
    }
    deg
}

/// Exact degrees in column `col` of `values` only (values absent from
/// the column are absent from the map).
pub fn degrees_of(rel: &Relation, col: usize, values: &FastSet<Value>) -> FastMap<Value, u64> {
    degrees_where(rel, col, |v| values.contains(&v))
}

/// Values whose degree in column `col` is **at least** `threshold`.
///
/// The paper's definition (slide 29): a heavy hitter is a value occurring
/// at least `IN/p` times. The result is sorted for determinism. Costs one
/// scan when no hash bucket holds `threshold` rows, two otherwise; the
/// second builds degrees only for values in such buckets.
pub fn heavy_hitters(rel: &Relation, col: usize, threshold: u64) -> Vec<Value> {
    let mut counts = [0u64; BUCKETS];
    for v in column(rel, col) {
        *bucket(&mut counts, v) += 1;
    }
    if counts.iter().all(|&c| c < threshold) {
        return Vec::new();
    }
    let mut out: Vec<Value> = degrees_where(rel, col, |v| *bucket(&mut counts, v) >= threshold)
        .into_iter()
        .filter_map(|(v, d)| (d >= threshold).then_some(v))
        .collect();
    out.sort_unstable();
    out
}

/// Heavy hitters of a value across two relations joined on
/// `r.col(r_col) = s.col(s_col)`: values heavy in *either* side, with the
/// threshold applied to the combined input size as on slide 29
/// ("occurs at least IN/p times in R or S").
pub fn join_heavy_hitters(
    r: &Relation,
    r_col: usize,
    s: &Relation,
    s_col: usize,
    threshold: u64,
) -> Vec<Value> {
    let mut heavy = heavy_hitters(r, r_col, threshold);
    heavy.extend(heavy_hitters(s, s_col, threshold));
    heavy.sort_unstable();
    heavy.dedup();
    heavy
}

/// Exact output cardinality of the equi-join `R ⋈_{R.r_col = S.s_col} S`:
/// `Σ_v deg_R(v) · deg_S(v)`, computed without materializing the join.
pub fn join_output_size(r: &Relation, r_col: usize, s: &Relation, s_col: usize) -> u64 {
    let dr = degree_counts(r, r_col);
    let ds = degree_counts(s, s_col);
    // Iterate over the smaller map.
    let (small, big) = if dr.len() <= ds.len() {
        (&dr, &ds)
    } else {
        (&ds, &dr)
    };
    small
        .iter()
        .map(|(v, d)| d * big.get(v).copied().unwrap_or(0))
        .sum()
}

/// The maximum degree in column `col` (0 for an empty relation).
pub fn max_degree(rel: &Relation, col: usize) -> u64 {
    degree_counts(rel, col).values().copied().max().unwrap_or(0)
}

/// Number of distinct values in column `col`.
pub fn distinct_count(rel: &Relation, col: usize) -> usize {
    degree_counts(rel, col).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::Zipf;
    use parqp_testkit::Rng;

    fn sample() -> Relation {
        // column 0 degrees: 1→3, 2→1, 3→2
        Relation::from_rows(2, [[1, 10], [1, 11], [1, 12], [2, 10], [3, 10], [3, 13]])
    }

    #[test]
    fn degrees_exact() {
        let d = degree_counts(&sample(), 0);
        assert_eq!(d[&1], 3);
        assert_eq!(d[&2], 1);
        assert_eq!(d[&3], 2);
    }

    #[test]
    fn heavy_hitters_threshold_inclusive() {
        let r = sample();
        assert_eq!(heavy_hitters(&r, 0, 2), vec![1, 3]);
        assert_eq!(heavy_hitters(&r, 0, 3), vec![1]);
        assert_eq!(heavy_hitters(&r, 0, 4), Vec::<Value>::new());
    }

    #[test]
    fn join_heavy_union() {
        let r = sample();
        let s = Relation::from_rows(2, [[10, 2], [11, 2], [12, 2]]); // 2 heavy in s.col(1)
        let h = join_heavy_hitters(&r, 0, &s, 1, 2);
        assert_eq!(h, vec![1, 2, 3]);
    }

    #[test]
    fn output_size_matches_nested_loop() {
        let r = sample();
        let s = Relation::from_rows(2, [[1, 0], [1, 1], [3, 0], [9, 9]]);
        let brute = r
            .iter()
            .flat_map(|a| s.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a[0] == b[0])
            .count() as u64;
        assert_eq!(join_output_size(&r, 0, &s, 0), brute);
        assert_eq!(brute, 3 * 2 + 2);
    }

    #[test]
    fn max_degree_and_distinct() {
        let r = sample();
        assert_eq!(max_degree(&r, 0), 3);
        assert_eq!(distinct_count(&r, 0), 3);
        assert_eq!(distinct_count(&r, 1), 4);
    }

    /// The full-histogram formula `heavy_hitters` replaced.
    fn heavy_oracle(rel: &Relation, col: usize, t: u64) -> Vec<Value> {
        let mut out: Vec<Value> = degree_counts(rel, col)
            .into_iter()
            .filter_map(|(v, d)| (d >= t).then_some(v))
            .collect();
        out.sort_unstable();
        out
    }

    /// `n` distinct values that all hash to bucket 0: `i · MULT⁻¹`, so
    /// `v · MULT = i` has zero top bits.
    fn one_bucket_values(n: u64) -> Vec<Value> {
        let mut inv = MULT; // Newton's iteration for the inverse mod 2⁶⁴
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(MULT.wrapping_mul(inv)));
        }
        assert_eq!(MULT.wrapping_mul(inv), 1);
        (0..n).map(|i| i.wrapping_mul(inv)).collect()
    }

    #[test]
    fn heavy_hitters_equal_the_degree_map_oracle() {
        let mut rng = Rng::seed_from_u64(0x4ea7);
        let mut rels: Vec<Relation> = vec![Relation::new(1), Relation::new(3)];
        for case in 0..60u64 {
            let arity = 1 + (case % 3) as usize;
            let n = rng.gen_range(1..=3000usize);
            let domain = rng.gen_range(1..=5000u64);
            let zipf = Zipf::new(domain as usize, 1.1);
            let mut rel = Relation::with_capacity(arity, n);
            let mut row = vec![0; arity];
            for _ in 0..n {
                for v in row.iter_mut() {
                    *v = match case % 3 {
                        0 => rng.gen_range(0..domain),
                        1 => zipf.sample(&mut rng),
                        _ if rng.gen_bool(0.3) => 7,
                        _ => rng.next_u64(),
                    };
                }
                rel.push(&row);
            }
            rels.push(rel);
        }
        // Every value in one bucket: uniform over 300 of them, plus one
        // value planted 400 times.
        let same = one_bucket_values(300);
        let mut counts = [0u64; BUCKETS];
        for &v in &same {
            *bucket(&mut counts, v) += 1;
        }
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 1);
        let mut rel = Relation::new(2);
        for i in 0..3000 {
            rel.push(&[same[rng.gen_range(0..300usize)], i]);
        }
        for i in 0..400 {
            rel.push(&[same[17], i]);
        }
        rels.push(rel);

        let mut nonempty = 0;
        for rel in &rels {
            let n = rel.len() as u64;
            for p in [2u64, 8, 64] {
                for t in [0, 1, 2, n / p, n, n + 1] {
                    for col in 0..rel.arity() {
                        let got = heavy_hitters(rel, col, t);
                        assert_eq!(got, heavy_oracle(rel, col, t), "col {col}, t = {t}");
                        nonempty += usize::from(!got.is_empty());
                    }
                }
            }
        }
        assert!(
            nonempty > 100,
            "the oracle agreed on too few non-empty answers"
        );
    }

    #[test]
    fn empty_relation_stats() {
        let r = Relation::new(2);
        assert_eq!(max_degree(&r, 0), 0);
        assert_eq!(distinct_count(&r, 0), 0);
        assert!(heavy_hitters(&r, 0, 1).is_empty());
    }
}
