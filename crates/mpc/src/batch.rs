//! Flat row batches: the wire format for relation tuples.
//!
//! A [`RowBatch`] is a run of rows that share one routing tag and one
//! arity, stored row-major in a single `Vec<u64>`: row `i` occupies
//! `data[i*arity .. (i+1)*arity]`. [`Exchange::send_row`] appends to the
//! destination's trailing batch and opens a new one only when the tag
//! (or the arity) changes, so an inbox is a short list of batches whose
//! rows, read front to back, are exactly the rows in send order.
//!
//! The ledger is unchanged by the batching: every row counts as one
//! tuple and `arity` words ([`Weight::tuples`] / [`Weight::words_of`]),
//! exactly as a per-row message would.
//!
//! [`Exchange::send_row`]: crate::Exchange::send_row

use crate::weight::Weight;

/// A run of same-tag, same-arity rows, stored flat. The arity is at
/// least 1 and the data holds whole rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBatch {
    pub(crate) tag: u32,
    pub(crate) arity: usize,
    pub(crate) data: Vec<u64>,
}

impl RowBatch {
    /// A batch of the `arity`-wide rows in `data`, tagged `tag`.
    ///
    /// # Panics
    /// Panics if `arity == 0` or `data` does not hold whole rows.
    pub fn new(tag: u32, arity: usize, data: Vec<u64>) -> Self {
        assert!(arity > 0, "row batches need a positive arity");
        assert_eq!(data.len() % arity, 0, "row batch data is not whole rows");
        Self { tag, arity, data }
    }

    /// Routing metadata (typically the index of the source relation);
    /// not charged as payload.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Width of every row in the batch.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.arity
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The rows' values, row-major.
    pub fn values(&self) -> &[u64] {
        &self.data
    }

    /// Take the row-major values out of the batch.
    pub fn into_values(self) -> Vec<u64> {
        self.data
    }
}

impl Weight for RowBatch {
    fn words(&self) -> u64 {
        self.data.len() as u64
    }

    fn tuples(&self) -> u64 {
        self.len() as u64
    }

    fn words_of(&self, k: u64) -> u64 {
        k.min(self.tuples()) * self.arity as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_weights() {
        let b = RowBatch::new(3, 2, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!((b.tag(), b.arity()), (3, 2));
        assert_eq!((b.tuples(), b.words()), (3, 6));
        assert_eq!(b.words_of(2), 4);
        assert_eq!(b.words_of(9), 6, "capped at the batch");
    }

    #[test]
    #[should_panic(expected = "not whole rows")]
    fn partial_rows_are_rejected() {
        RowBatch::new(0, 2, vec![1, 2, 3]);
    }
}
