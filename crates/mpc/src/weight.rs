//! Message weights: how many *words* a message contributes to the load.
//!
//! The paper measures load in tuples; when relations have different arities
//! it is fairer to also measure words (one word per attribute value). Every
//! message type exchanged through the simulator implements [`Weight`]; the
//! cluster records both the tuple count ([`Weight::tuples`]: one per
//! message, except for a [`RowBatch`](crate::RowBatch), which counts its
//! rows) and the word count (the sum of [`Weight::words`]).

/// Number of tuples and machine words a message occupies on the wire.
pub trait Weight {
    /// The number of words this message counts for in the word-load metric.
    fn words(&self) -> u64;

    /// The number of tuples this message counts for in the tuple-load
    /// metric: 1 for every single-tuple message.
    #[inline]
    fn tuples(&self) -> u64 {
        1
    }

    /// The words carried by `k` of this message's tuples (`k` is capped
    /// at [`Weight::tuples`]): fault injection resolves dropped and
    /// duplicated batches per tuple through this.
    #[inline]
    fn words_of(&self, k: u64) -> u64 {
        if k == 0 {
            0
        } else {
            self.words()
        }
    }
}

impl Weight for u64 {
    fn words(&self) -> u64 {
        1
    }
}

impl Weight for u32 {
    fn words(&self) -> u64 {
        1
    }
}

impl Weight for usize {
    fn words(&self) -> u64 {
        1
    }
}

impl Weight for f64 {
    fn words(&self) -> u64 {
        1
    }
}

impl<T: Weight> Weight for Vec<T> {
    fn words(&self) -> u64 {
        self.iter().map(Weight::words).sum()
    }
}

impl<T: Weight> Weight for Box<[T]> {
    fn words(&self) -> u64 {
        self.iter().map(Weight::words).sum()
    }
}

impl<A: Weight, B: Weight> Weight for (A, B) {
    fn words(&self) -> u64 {
        self.0.words() + self.1.words()
    }
}

impl<A: Weight, B: Weight, C: Weight> Weight for (A, B, C) {
    fn words(&self) -> u64 {
        self.0.words() + self.1.words() + self.2.words()
    }
}

impl<T: Weight, const N: usize> Weight for [T; N] {
    fn words(&self) -> u64 {
        self.iter().map(Weight::words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_weights() {
        assert_eq!(7u64.words(), 1);
        assert_eq!(7u32.words(), 1);
        assert_eq!(7usize.words(), 1);
        assert_eq!(1.5f64.words(), 1);
    }

    #[test]
    fn composite_weights() {
        assert_eq!(vec![1u64, 2, 3].words(), 3);
        assert_eq!((1u64, 2u64).words(), 2);
        assert_eq!((1u64, 2u64, 3u64).words(), 3);
        assert_eq!([1u64, 2, 3, 4].words(), 4);
        let b: Box<[u64]> = vec![5, 6].into_boxed_slice();
        assert_eq!(b.words(), 2);
    }

    #[test]
    fn single_tuple_messages_resolve_whole() {
        let m = vec![1u64, 2, 3];
        assert_eq!(m.tuples(), 1);
        assert_eq!(m.words_of(0), 0);
        assert_eq!(m.words_of(1), 3);
        assert_eq!(m.words_of(5), 3);
    }

    #[test]
    fn nested_weights() {
        assert_eq!((vec![1u64, 2], 3u64).words(), 3);
        assert_eq!(vec![vec![1u64], vec![2, 3]].words(), 3);
    }
}
