//! Sparse vectors for high-dimensional bag-of-words data.

use serde::{Deserialize, Serialize};

/// A sparse vector: sorted `(dimension, value)` pairs plus a cached
/// Euclidean norm.
///
/// This is the representation of the musiXmatch-style workloads: each
/// song is the word-count vector of the 5,000 most frequent words, with
/// typically only a few dozen nonzero entries. Caching `‖v‖₂` at
/// construction leaves the cosine distance one sparse dot product: a
/// sorted merge for a single pair ([`SparseVector::dot`]), or one
/// gather per target when [`crate::CosineDistance`]'s batch kernel has
/// scattered the probe, which matters for the streaming-throughput
/// experiment (Figure 3).
///
/// Deserialization enforces the invariants [`SparseVector::new`]
/// establishes — strictly increasing dimensions, finite nonzero values,
/// and a norm equal to the recomputed one — and rejects any input that
/// breaks them.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SparseVector {
    /// Nonzero entries, strictly sorted by dimension id.
    entries: Vec<(u32, f64)>,
    /// Cached `‖v‖₂`.
    norm: f64,
}

impl SparseVector {
    /// Builds a sparse vector from `(dimension, value)` pairs.
    ///
    /// Pairs are sorted, zero values dropped, and duplicate dimensions
    /// summed. Values must be finite.
    ///
    /// # Panics
    /// Panics if any value is non-finite.
    pub fn new(mut entries: Vec<(u32, f64)>) -> Self {
        assert!(
            entries.iter().all(|(_, v)| v.is_finite()),
            "SparseVector values must be finite"
        );
        entries.sort_unstable_by_key(|&(d, _)| d);
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(entries.len());
        for (d, v) in entries {
            match merged.last_mut() {
                Some((ld, lv)) if *ld == d => *lv += v,
                _ => merged.push((d, v)),
            }
        }
        merged.retain(|&(_, v)| v != 0.0);
        let norm = norm_of(&merged);
        Self {
            entries: merged,
            norm,
        }
    }

    /// The all-zero vector.
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
            norm: 0.0,
        }
    }

    /// Number of nonzero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the vector has no nonzero entries.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// The sorted nonzero entries.
    #[inline]
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Sparse dot product via sorted-merge; `O(nnz(a) + nnz(b))`.
    pub fn dot(&self, other: &Self) -> f64 {
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.entries, &other.entries);
        let mut sum = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Cosine similarity in `[-1, 1]`; zero vectors are treated as
    /// orthogonal to everything (similarity 0) and identical to
    /// themselves (similarity 1).
    pub fn cosine_similarity(&self, other: &Self) -> f64 {
        if self.is_zero() && other.is_zero() {
            return 1.0;
        }
        if self.is_zero() || other.is_zero() {
            return 0.0;
        }
        // Clamp: accumulated rounding can push u·v/(‖u‖‖v‖) epsilon
        // outside [-1, 1], which would make arccos return NaN.
        (self.dot(other) / (self.norm * other.norm)).clamp(-1.0, 1.0)
    }

    /// Approximate number of bytes this vector occupies (for memory
    /// accounting).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.entries.len() * std::mem::size_of::<(u32, f64)>()
    }
}

/// `‖v‖₂` of sorted entries, summed in dimension order.
fn norm_of(entries: &[(u32, f64)]) -> f64 {
    entries.iter().map(|(_, v)| v * v).sum::<f64>().sqrt()
}

/// The serialized fields, decoded before [`SparseVector`]'s invariants
/// are checked.
#[derive(Deserialize)]
struct RawSparseVector {
    entries: Vec<(u32, f64)>,
    norm: f64,
}

impl Deserialize for SparseVector {
    fn deserialize_json(p: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let RawSparseVector { entries, norm } = RawSparseVector::deserialize_json(p)?;
        if let Some(w) = entries.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(serde::Error::custom(format!(
                "SparseVector dimensions not strictly increasing: {} then {}",
                w[0].0, w[1].0
            )));
        }
        if let Some(&(d, v)) = entries.iter().find(|(_, v)| *v == 0.0 || !v.is_finite()) {
            return Err(serde::Error::custom(format!(
                "SparseVector value at dimension {d} is {v}; values must be finite and nonzero"
            )));
        }
        // `!=`, not bitwise: the empty vector's norm is `±0.0`
        // depending on how it was built.
        let expect = norm_of(&entries);
        if norm != expect {
            return Err(serde::Error::custom(format!(
                "SparseVector norm {norm} differs from its entries' norm {expect}"
            )));
        }
        Ok(Self { entries, norm })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_merges_and_drops_zeros() {
        let v = SparseVector::new(vec![(5, 2.0), (1, 1.0), (5, 3.0), (7, 0.0)]);
        assert_eq!(v.entries(), &[(1, 1.0), (5, 5.0)]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn norm_is_cached_correctly() {
        let v = SparseVector::new(vec![(0, 3.0), (9, 4.0)]);
        assert_eq!(v.norm(), 5.0);
    }

    #[test]
    fn dot_product_of_disjoint_supports_is_zero() {
        let a = SparseVector::new(vec![(0, 1.0), (2, 1.0)]);
        let b = SparseVector::new(vec![(1, 1.0), (3, 1.0)]);
        assert_eq!(a.dot(&b), 0.0);
    }

    #[test]
    fn dot_product_overlapping() {
        let a = SparseVector::new(vec![(0, 2.0), (2, 3.0)]);
        let b = SparseVector::new(vec![(2, 4.0), (5, 1.0)]);
        assert_eq!(a.dot(&b), 12.0);
    }

    #[test]
    fn cosine_similarity_of_parallel_vectors_is_one() {
        let a = SparseVector::new(vec![(0, 1.0), (1, 2.0)]);
        let b = SparseVector::new(vec![(0, 2.0), (1, 4.0)]);
        assert!((a.cosine_similarity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_conventions() {
        let z = SparseVector::empty();
        let v = SparseVector::new(vec![(0, 1.0)]);
        assert_eq!(z.cosine_similarity(&z), 1.0);
        assert_eq!(z.cosine_similarity(&v), 0.0);
        assert!(z.is_zero());
    }

    #[test]
    fn merging_to_zero_drops_entry() {
        let v = SparseVector::new(vec![(3, 1.0), (3, -1.0)]);
        assert!(v.is_zero());
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        let _ = SparseVector::new(vec![(0, f64::NAN)]);
    }

    fn decode(json: &str) -> Result<SparseVector, serde::Error> {
        SparseVector::deserialize_json(&mut serde::Parser::new(json))
    }

    fn encode(v: &SparseVector) -> String {
        let mut out = String::new();
        v.serialize_json(&mut out);
        out
    }

    #[test]
    fn serde_roundtrip_is_exact() {
        for v in [
            SparseVector::empty(),
            SparseVector::new(vec![(4, 0.1), (1, -3.7), (900, 1e-300), (2, 1e300)]),
            SparseVector::new((0..40).map(|d| (d * 13, 1.0 / (d + 1) as f64)).collect()),
        ] {
            let back = decode(&encode(&v)).expect("valid vector decodes");
            assert_eq!(back, v);
            assert_eq!(back.norm().to_bits(), v.norm().to_bits());
        }
    }

    #[test]
    fn deserialize_rejects_unsorted_dimensions() {
        let err = decode(r#"{"entries":[[5,1.0],[1,2.0]],"norm":2.23606797749979}"#);
        assert!(err.unwrap_err().to_string().contains("strictly increasing"));
    }

    #[test]
    fn deserialize_rejects_duplicate_dimensions() {
        let err = decode(r#"{"entries":[[1,3.0],[1,4.0]],"norm":5}"#);
        assert!(err.unwrap_err().to_string().contains("strictly increasing"));
    }

    #[test]
    fn deserialize_rejects_zero_values() {
        for json in [
            r#"{"entries":[[1,0.0]],"norm":0}"#,
            r#"{"entries":[[1,-0.0],[2,1.0]],"norm":1}"#,
        ] {
            let err = decode(json).unwrap_err().to_string();
            assert!(err.contains("finite and nonzero"), "{json}: {err}");
        }
    }

    #[test]
    fn deserialize_rejects_non_finite_values() {
        for value in [r#""nan""#, r#""inf""#, r#""-inf""#] {
            let json = format!(r#"{{"entries":[[1,{value}]],"norm":"inf"}}"#);
            let err = decode(&json).unwrap_err().to_string();
            assert!(err.contains("finite and nonzero"), "{json}: {err}");
        }
    }

    #[test]
    fn deserialize_rejects_a_stale_norm() {
        for json in [
            r#"{"entries":[[0,3.0],[9,4.0]],"norm":5.000000000000001}"#,
            r#"{"entries":[[0,3.0],[9,4.0]],"norm":"nan"}"#,
            r#"{"entries":[],"norm":1}"#,
        ] {
            let err = decode(json).unwrap_err().to_string();
            assert!(err.contains("differs"), "{json}: {err}");
        }
        assert_eq!(
            decode(r#"{"entries":[[0,3.0],[9,4.0]],"norm":5}"#).unwrap(),
            SparseVector::new(vec![(9, 4.0), (0, 3.0)])
        );
    }
}
