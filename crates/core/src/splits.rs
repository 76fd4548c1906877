//! Input splits over a shared data array.
//!
//! Splits reference the dataset through an `Arc` rather than copying it —
//! the engine's mappers see exactly their slice, mirroring HDFS blocks,
//! while the driver pays no per-job duplication.

use std::sync::Arc;

use crate::error::CoreError;

/// One mapper's input: a contiguous slice of the dataset.
#[derive(Debug, Clone)]
pub struct SliceSplit {
    /// Split index (for aligned splits, the base sub-tree id).
    pub id: u32,
    data: Arc<Vec<f64>>,
    start: usize,
    len: usize,
}

impl SliceSplit {
    /// The slice this split covers.
    #[inline]
    pub fn slice(&self) -> &[f64] {
        &self.data[self.start..self.start + self.len]
    }

    /// Start offset in the full dataset.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Length of the slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the slice is empty (never for well-formed splits).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical HDFS bytes of this split (8 bytes per value).
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.len * 8) as u64
    }
}

/// Splits `data` into consecutive chunks of exactly `chunk` values
/// (`data.len()` must be divisible by `chunk`). Used by the
/// locality-preserving partitioning, where `chunk` is the base sub-tree
/// leaf count.
pub fn aligned_splits(data: &[f64], chunk: usize) -> Vec<SliceSplit> {
    assert!(
        chunk > 0 && data.len().is_multiple_of(chunk),
        "chunk must divide data length"
    );
    let shared = Arc::new(data.to_vec());
    (0..data.len() / chunk)
        .map(|j| SliceSplit {
            id: j as u32,
            data: Arc::clone(&shared),
            start: j * chunk,
            len: chunk,
        })
        .collect()
}

/// Splits `data` into `parts` nearly-equal chunks with no alignment
/// requirement — HDFS-block-style splits, as used by Send-Coef and
/// H-WTopk (Appendix A: "the block size does not need to be aligned to a
/// power of two"). `parts == 0` is refused: no mapper could read the data.
pub fn block_splits(data: &[f64], parts: usize) -> Result<Vec<SliceSplit>, CoreError> {
    if parts == 0 {
        return Err(CoreError::Protocol("parts must be positive"));
    }
    let shared = Arc::new(data.to_vec());
    let n = data.len();
    let parts = parts.min(n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut start = 0;
    Ok((0..parts)
        .map(|j| {
            let len = base + usize::from(j < extra);
            let split = SliceSplit {
                id: j as u32,
                data: Arc::clone(&shared),
                start,
                len,
            };
            start += len;
            split
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_covers_everything() {
        let data: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let splits = aligned_splits(&data, 8);
        assert_eq!(splits.len(), 4);
        for (j, s) in splits.iter().enumerate() {
            assert_eq!(s.id as usize, j);
            assert_eq!(s.slice(), &data[j * 8..(j + 1) * 8]);
            assert_eq!(s.bytes(), 64);
        }
    }

    #[test]
    #[should_panic]
    fn aligned_rejects_misaligned() {
        aligned_splits(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn block_splits_cover_everything_unaligned() {
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let splits = block_splits(&data, 3).unwrap();
        assert_eq!(splits.len(), 3);
        let total: usize = splits.iter().map(SliceSplit::len).sum();
        assert_eq!(total, 10);
        let mut rebuilt = Vec::new();
        for s in &splits {
            rebuilt.extend_from_slice(s.slice());
        }
        assert_eq!(rebuilt, data);
        // Sizes differ by at most 1.
        let sizes: Vec<usize> = splits.iter().map(SliceSplit::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn block_splits_more_parts_than_items() {
        let data = [1.0, 2.0];
        let splits = block_splits(&data, 5).unwrap();
        assert_eq!(splits.len(), 2);
        assert!(matches!(
            block_splits(&data, 0),
            Err(CoreError::Protocol(_))
        ));
    }
}
