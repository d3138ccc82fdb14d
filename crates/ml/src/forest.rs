//! Random-forest classifier (`rf`).
//!
//! A bagged ensemble of CART trees: each tree is trained on a bootstrap
//! resample of the training set and examines only a random subset of the
//! features at every split (`max_features`, defaulting to ⌈√d⌉). Predictions
//! are made by majority vote. The paper tunes the maximum depth and the
//! per-split feature count for this model (Section 6.2) and selects it as the
//! classifier for the search-query study (Section 7.3).

use crate::cart::{CartConfig, Columns, DecisionTree};
use crate::classifier::Classifier;
use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees in the ensemble.
    pub num_trees: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Features examined per split; `None` = ⌈√(num_features)⌉.
    pub max_features: Option<usize>,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// RNG seed controlling bootstrap resampling and feature subsampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            num_trees: 30,
            max_depth: 14,
            max_features: None,
            min_samples_split: 2,
            seed: 0,
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    num_classes: usize,
}

impl RandomForest {
    /// Trains the forest on a dataset.
    pub fn fit(data: &Dataset, config: &ForestConfig) -> Self {
        assert!(config.num_trees > 0, "forest needs at least one tree");
        let num_classes = data.num_classes().max(1);
        if data.is_empty() {
            return RandomForest {
                trees: vec![DecisionTree::fit(data, &CartConfig::default())],
                num_classes,
            };
        }
        let columns = Columns::new(data);
        let trees = Self::bootstraps(config, data.len())
            .into_iter()
            .enumerate()
            .map(|(t, bootstrap)| {
                let cart_config = Self::tree_config(config, data.num_features(), t);
                DecisionTree::fit_rows(&columns, bootstrap, &cart_config)
            })
            .collect();
        RandomForest { trees, num_classes }
    }

    /// The bootstrap resample of each tree: `n` row indices drawn with
    /// replacement, in draw order.
    fn bootstraps(config: &ForestConfig, n: usize) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        (0..config.num_trees)
            .map(|_| (0..n).map(|_| rng.gen_range(0..n)).collect())
            .collect()
    }

    /// The configuration of tree `t`.
    fn tree_config(config: &ForestConfig, num_features: usize, t: usize) -> CartConfig {
        let max_features = config
            .max_features
            .unwrap_or_else(|| (num_features as f64).sqrt().ceil().max(1.0) as usize);
        CartConfig {
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_split,
            min_impurity_decrease: 0.0,
            max_features: Some(max_features),
            seed: config.seed.wrapping_add(t as u64 + 1),
        }
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Per-class vote fractions for a row.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut votes = vec![0usize; self.num_classes];
        for tree in &self.trees {
            let class = tree.predict(row);
            if class < self.num_classes {
                votes[class] += 1;
            }
        }
        let total = self.trees.len() as f64;
        votes.into_iter().map(|v| v as f64 / total).collect()
    }

    /// Predicts the majority-vote class.
    pub fn predict(&self, row: &[f64]) -> usize {
        let probs = self.predict_proba(row);
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// Model-family name.
    pub fn name(&self) -> &'static str {
        "rf"
    }
}

impl Classifier for RandomForest {
    fn predict(&self, row: &[f64]) -> usize {
        RandomForest::predict(self, row)
    }

    fn name(&self) -> &'static str {
        RandomForest::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_clusters(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..4usize {
            let cx = (c % 2) as f64 * 8.0;
            let cy = (c / 2) as f64 * 8.0;
            for _ in 0..40 {
                rows.push(vec![
                    cx + rng.gen_range(-1.0..1.0),
                    cy + rng.gen_range(-1.0..1.0),
                ]);
                labels.push(c);
            }
        }
        Dataset::from_rows(rows, labels)
    }

    #[test]
    fn learns_clustered_data_well() {
        let data = noisy_clusters(1);
        let forest = RandomForest::fit(&data, &ForestConfig::default());
        assert!(forest.accuracy(&data) > 0.95);
        assert_eq!(forest.num_trees(), 30);
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let data = noisy_clusters(2);
        let (train, test) = data.train_test_split(0.3, 7);
        let forest = RandomForest::fit(&train, &ForestConfig::default());
        assert!(
            forest.accuracy(&test) > 0.9,
            "accuracy {}",
            forest.accuracy(&test)
        );
    }

    #[test]
    fn vote_fractions_sum_to_one() {
        let data = noisy_clusters(3);
        let forest = RandomForest::fit(&data, &ForestConfig::default());
        let probs = forest.predict_proba(&[0.0, 0.0]);
        assert_eq!(probs.len(), 4);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = noisy_clusters(4);
        let a = RandomForest::fit(
            &data,
            &ForestConfig {
                seed: 9,
                ..ForestConfig::default()
            },
        );
        let b = RandomForest::fit(
            &data,
            &ForestConfig {
                seed: 9,
                ..ForestConfig::default()
            },
        );
        for row in data.rows().iter().take(20) {
            assert_eq!(a.predict(row), b.predict(row));
        }
    }

    #[test]
    fn shared_columns_grow_the_same_trees_as_bootstrap_copies() {
        let mut data = noisy_clusters(7);
        // Sparse, tied columns as in the text features.
        let mut rng = StdRng::seed_from_u64(8);
        let rows: Vec<Vec<f64>> = data
            .rows()
            .iter()
            .map(|row| {
                let mut row = row.clone();
                row.extend((0..6).map(|_| f64::from(u8::from(rng.gen_bool(0.1)))));
                row
            })
            .collect();
        data = Dataset::from_rows(rows, data.labels().to_vec()).with_num_classes(6);
        for max_features in [None, Some(1), Some(8)] {
            let config = ForestConfig {
                num_trees: 5,
                max_features,
                seed: 11,
                ..ForestConfig::default()
            };
            let forest = RandomForest::fit(&data, &config);
            let bootstraps = RandomForest::bootstraps(&config, data.len());
            for (t, (tree, bootstrap)) in forest.trees.iter().zip(&bootstraps).enumerate() {
                let sample = data.subset(bootstrap).with_num_classes(data.num_classes());
                let cart_config = RandomForest::tree_config(&config, data.num_features(), t);
                let copied = DecisionTree::fit(&sample, &cart_config);
                assert_eq!(tree.shape(), copied.shape(), "tree {t}, {config:?}");
            }
        }
    }

    #[test]
    fn single_tree_forest_works() {
        let data = noisy_clusters(5);
        let forest = RandomForest::fit(
            &data,
            &ForestConfig {
                num_trees: 1,
                ..ForestConfig::default()
            },
        );
        assert_eq!(forest.num_trees(), 1);
        assert!(forest.accuracy(&data) > 0.8);
    }

    #[test]
    fn empty_dataset_predicts_class_zero() {
        let data = Dataset::new(2, 3);
        let forest = RandomForest::fit(&data, &ForestConfig::default());
        assert_eq!(forest.predict(&[1.0, 1.0]), 0);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let data = noisy_clusters(6);
        let _ = RandomForest::fit(
            &data,
            &ForestConfig {
                num_trees: 0,
                ..ForestConfig::default()
            },
        );
    }
}
