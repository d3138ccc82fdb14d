//! Exact frequency distributions and the estimator trait.

use crate::element::{ElementId, StreamElement};
use crate::stream::Stream;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Hasher state with fixed keys, for maps whose iteration order reaches
/// training. `RandomState` draws new keys in every process, and iteration
/// order sets a training prefix's order, which seeds the frequency sample;
/// with fixed keys one seed trains one scheme in every run. Known keys give
/// up `RandomState`'s defence against crafted colliding keys, so use this
/// only where the keys are element IDs of in-process streams; maps keyed by
/// what wire clients send keep `RandomState`.
pub type FixedState = BuildHasherDefault<DefaultHasher>;

/// Exact frequency distribution `f` of a stream: a map from element ID to its
/// number of occurrences.
///
/// This is the ground truth against which every estimator is evaluated. It is
/// also what a "store everything" baseline would maintain, so its
/// [`FrequencyVector::support_size`] doubles as the space lower bound the
/// paper's compressed estimators are measured against.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrequencyVector {
    counts: HashMap<ElementId, u64, FixedState>,
    total: u64,
}

impl FrequencyVector {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        FrequencyVector::default()
    }

    /// Builds the exact distribution of a stream.
    pub fn from_stream(stream: &Stream) -> Self {
        let mut fv = FrequencyVector::new();
        for arrival in stream.iter() {
            fv.increment(arrival.id);
        }
        fv
    }

    /// Builds a distribution from `(id, count)` pairs; zero counts are
    /// dropped and duplicate IDs are summed.
    pub fn from_counts<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (ElementId, u64)>,
    {
        let mut fv = FrequencyVector::new();
        for (id, count) in pairs {
            fv.add(id, count);
        }
        fv
    }

    /// Adds one occurrence of `id`.
    #[inline]
    pub fn increment(&mut self, id: ElementId) {
        self.add(id, 1);
    }

    /// Adds `count` occurrences of `id`.
    pub fn add(&mut self, id: ElementId, count: u64) {
        if count == 0 {
            return;
        }
        *self.counts.entry(id).or_insert(0) += count;
        self.total += count;
    }

    /// Merges another distribution into this one (used to accumulate
    /// frequencies across days in the query-log experiments).
    pub fn merge(&mut self, other: &FrequencyVector) {
        for (&id, &count) in &other.counts {
            self.add(id, count);
        }
    }

    /// Exact frequency of an element (0 if never seen).
    #[inline]
    pub fn frequency(&self, id: ElementId) -> u64 {
        self.counts.get(&id).copied().unwrap_or(0)
    }

    /// Number of distinct elements with non-zero frequency.
    #[inline]
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }

    /// Sum of all frequencies (`‖f‖₁`).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest single-element frequency.
    pub fn max_frequency(&self) -> u64 {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Iterates over `(id, frequency)` pairs in an unspecified order that
    /// depends only on the inserted IDs, never on the process.
    pub fn iter(&self) -> impl Iterator<Item = (ElementId, u64)> + '_ {
        self.counts.iter().map(|(&id, &c)| (id, c))
    }

    /// IDs sorted by decreasing frequency (ties broken by ID for
    /// determinism). Rank 1 is the most frequent element — the ordering used
    /// by Table 1 of the paper.
    pub fn ids_by_rank(&self) -> Vec<ElementId> {
        let mut ids: Vec<(ElementId, u64)> = self.iter().collect();
        ids.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ids.into_iter().map(|(id, _)| id).collect()
    }

    /// Frequency of the element at 1-based `rank` (None if fewer elements).
    pub fn frequency_at_rank(&self, rank: usize) -> Option<(ElementId, u64)> {
        if rank == 0 {
            return None;
        }
        let ids = self.ids_by_rank();
        ids.get(rank - 1).map(|&id| (id, self.frequency(id)))
    }
}

/// Common interface of every streaming frequency estimator in the workspace.
///
/// The lifecycle mirrors the paper's stream processing phase (Section 3 and
/// Appendix B): elements arrive one at a time via [`FrequencyEstimator::update`],
/// and point queries are answered at any time via
/// [`FrequencyEstimator::estimate`]. `space_bytes` reports the memory the
/// estimator would occupy under the paper's accounting (4 bytes per counter,
/// 8 bytes per stored ID), so different estimators can be compared at equal
/// size as in Figures 7–8.
pub trait FrequencyEstimator {
    /// Processes one arrival of `element`.
    fn update(&mut self, element: &StreamElement);

    /// Returns the estimated frequency of `element`.
    fn estimate(&self, element: &StreamElement) -> f64;

    /// Memory footprint of the estimator state in bytes, under the paper's
    /// accounting model (see [`crate::space`]).
    fn space_bytes(&self) -> usize;

    /// Human-readable name used in experiment output (e.g. `count-min`).
    fn name(&self) -> &'static str;

    /// Processes a whole stream in arrival order.
    fn update_stream(&mut self, stream: &Stream) {
        for arrival in stream.iter() {
            self.update(arrival);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::StreamElement;

    #[test]
    fn vectors_from_one_stream_iterate_in_the_same_order() {
        let stream = Stream::from_arrivals(
            (0..5_000u64)
                .map(|i| StreamElement::without_features((i * 7_919) % 1_013))
                .collect(),
        );
        let a: Vec<(ElementId, u64)> = FrequencyVector::from_stream(&stream).iter().collect();
        let b: Vec<(ElementId, u64)> = FrequencyVector::from_stream(&stream).iter().collect();
        assert_eq!(a.len(), 1_013);
        assert_eq!(a, b);
    }

    #[test]
    fn from_stream_counts_occurrences() {
        let s = Stream::from_ids([1u64, 2, 1, 1, 3]);
        let fv = FrequencyVector::from_stream(&s);
        assert_eq!(fv.frequency(ElementId(1)), 3);
        assert_eq!(fv.frequency(ElementId(2)), 1);
        assert_eq!(fv.frequency(ElementId(9)), 0);
        assert_eq!(fv.total(), 5);
        assert_eq!(fv.support_size(), 3);
        assert_eq!(fv.max_frequency(), 3);
    }

    #[test]
    fn from_counts_drops_zeros_and_sums_duplicates() {
        let fv =
            FrequencyVector::from_counts([(ElementId(1), 2), (ElementId(2), 0), (ElementId(1), 3)]);
        assert_eq!(fv.frequency(ElementId(1)), 5);
        assert_eq!(fv.support_size(), 1);
        assert_eq!(fv.total(), 5);
    }

    #[test]
    fn merge_accumulates_across_days() {
        let mut day0 = FrequencyVector::from_counts([(ElementId(1), 5), (ElementId(2), 1)]);
        let day1 = FrequencyVector::from_counts([(ElementId(1), 2), (ElementId(3), 4)]);
        day0.merge(&day1);
        assert_eq!(day0.frequency(ElementId(1)), 7);
        assert_eq!(day0.frequency(ElementId(3)), 4);
        assert_eq!(day0.total(), 12);
    }

    #[test]
    fn rank_ordering_is_by_decreasing_frequency_with_id_tiebreak() {
        let fv = FrequencyVector::from_counts([
            (ElementId(10), 5),
            (ElementId(3), 7),
            (ElementId(7), 5),
            (ElementId(1), 1),
        ]);
        let ranked = fv.ids_by_rank();
        assert_eq!(
            ranked,
            vec![ElementId(3), ElementId(7), ElementId(10), ElementId(1)]
        );
        assert_eq!(fv.frequency_at_rank(1), Some((ElementId(3), 7)));
        assert_eq!(fv.frequency_at_rank(4), Some((ElementId(1), 1)));
        assert_eq!(fv.frequency_at_rank(5), None);
        assert_eq!(fv.frequency_at_rank(0), None);
    }

    /// A trivial exact estimator used to exercise the trait's default method.
    struct Exact(FrequencyVector);
    impl FrequencyEstimator for Exact {
        fn update(&mut self, element: &StreamElement) {
            self.0.increment(element.id);
        }
        fn estimate(&self, element: &StreamElement) -> f64 {
            self.0.frequency(element.id) as f64
        }
        fn space_bytes(&self) -> usize {
            self.0.support_size() * 12
        }
        fn name(&self) -> &'static str {
            "exact"
        }
    }

    #[test]
    fn estimator_trait_default_update_stream() {
        let s = Stream::from_ids([4u64, 4, 5]);
        let mut est = Exact(FrequencyVector::new());
        est.update_stream(&s);
        assert_eq!(est.estimate(&StreamElement::without_features(4u64)), 2.0);
        assert_eq!(est.estimate(&StreamElement::without_features(5u64)), 1.0);
        assert_eq!(est.name(), "exact");
        assert_eq!(est.space_bytes(), 24);
    }
}
