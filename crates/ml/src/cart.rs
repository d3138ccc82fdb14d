//! CART decision-tree classifier (`cart`).
//!
//! A binary classification tree grown by recursively choosing the
//! axis-aligned split that maximizes the Gini impurity decrease. Growth stops
//! at a maximum depth, a minimum number of samples per split, or when the
//! best split's impurity decrease falls below a threshold — the two
//! hyper-parameters the paper tunes for this model (Section 6.2).
//!
//! The split search reads a column-major copy of the features and sorts
//! only each node's nonzero values of a feature, so a node costs about its
//! nonzeros, not its rows × features: the query-log text features are
//! mostly zero. The trees are bit-identical to those of a full sort of
//! every node, which the tests check against a copy of that search.

use crate::classifier::Classifier;
use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CartConfig {
    /// Maximum tree depth (root has depth 0).
    pub max_depth: usize,
    /// Minimum number of examples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum weighted Gini impurity decrease required to accept a split.
    pub min_impurity_decrease: f64,
    /// Optional cap on the number of features examined per split
    /// (`None` = all features). Random forests set this to √d.
    pub max_features: Option<usize>,
    /// Seed for the feature subsampling (only used when `max_features` is
    /// set).
    pub seed: u64,
}

impl Default for CartConfig {
    fn default() -> Self {
        CartConfig {
            max_depth: 12,
            min_samples_split: 2,
            min_impurity_decrease: 0.0,
            max_features: None,
            seed: 0,
        }
    }
}

/// One node of the tree, stored in a flat arena.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Arena index of the subtree for `row[feature] <= threshold`.
        left: usize,
        /// Arena index of the subtree for `row[feature] > threshold`.
        right: usize,
    },
}

/// A trained CART decision tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    depth: usize,
}

/// Gini impurity of a label multiset given per-class counts and the total.
///
/// A class with count 0 adds exactly `+0.0` to the sum, so summing over
/// only the classes present in a node gives the same bits as summing over
/// every class.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

fn majority(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(c, _)| c)
        .unwrap_or(0)
}

/// Column-major copy of a dataset's feature matrix, built once per fit and
/// shared by every tree of a forest. Column `f` holds feature `f` of every
/// row, so the split search scans one contiguous slice per feature.
pub(crate) struct Columns<'a> {
    data: &'a Dataset,
    values: Vec<f64>,
}

impl<'a> Columns<'a> {
    pub(crate) fn new(data: &'a Dataset) -> Self {
        let num_rows = data.len();
        let mut values = vec![0.0; num_rows * data.num_features()];
        for (r, row) in data.rows().iter().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                values[f * num_rows + r] = v;
            }
        }
        Columns { data, values }
    }

    fn column(&self, feature: usize) -> &[f64] {
        let num_rows = self.data.len();
        &self.values[feature * num_rows..(feature + 1) * num_rows]
    }
}

/// The state of one fit: the growing arena plus scratch buffers reused by
/// every node.
struct Grower<'c, 'd> {
    columns: &'c Columns<'d>,
    config: &'c CartConfig,
    rng_state: u64,
    nodes: Vec<Node>,
    depth: usize,
    /// Per-class counts of the node being split (all zero between nodes).
    class_counts: Vec<usize>,
    /// Dense index of each class present in the node being split.
    slot: Vec<usize>,
    /// `(value, dense class)` of the node's nonzero values of one feature.
    nonzeros: Vec<(f64, usize)>,
    nonzero_counts: Vec<usize>,
    left: Vec<usize>,
    right: Vec<usize>,
}

impl Grower<'_, '_> {
    fn build(&mut self, rows: Vec<usize>, depth: usize) -> usize {
        self.depth = self.depth.max(depth);
        // Renumber the classes present in the node densely, in ascending
        // class order: every count below is indexed by that dense number.
        let labels = self.columns.data.labels();
        for &r in &rows {
            self.class_counts[labels[r]] += 1;
        }
        let mut classes = Vec::new();
        let mut counts = Vec::new();
        for (class, count) in self.class_counts.iter_mut().enumerate() {
            if *count > 0 {
                self.slot[class] = classes.len();
                classes.push(class);
                counts.push(std::mem::take(count));
            }
        }
        let node_impurity = gini(&counts, rows.len());
        let leaf_class = classes[majority(&counts)];

        let stop = depth >= self.config.max_depth
            || rows.len() < self.config.min_samples_split
            || node_impurity == 0.0;
        if stop {
            self.nodes.push(Node::Leaf { class: leaf_class });
            return self.nodes.len() - 1;
        }

        let dense: Vec<usize> = rows.iter().map(|&r| self.slot[labels[r]]).collect();
        match self.best_split(&rows, &dense, &counts, node_impurity) {
            None => {
                self.nodes.push(Node::Leaf { class: leaf_class });
                self.nodes.len() - 1
            }
            Some((feature, threshold)) => {
                let column = self.columns.column(feature);
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                    rows.into_iter().partition(|&r| column[r] <= threshold);
                // Guard against degenerate splits: the midpoint of two
                // adjacent floats can round onto the larger one.
                if left_rows.is_empty() || right_rows.is_empty() {
                    self.nodes.push(Node::Leaf { class: leaf_class });
                    return self.nodes.len() - 1;
                }
                // Reserve this node's slot before recursing so the arena
                // index is stable.
                let my_index = self.nodes.len();
                self.nodes.push(Node::Leaf { class: leaf_class });
                let left = self.build(left_rows, depth + 1);
                let right = self.build(right_rows, depth + 1);
                self.nodes[my_index] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                my_index
            }
        }
    }

    /// Finds the best (feature, threshold) split of the node holding `rows`
    /// (with dense classes `dense` and dense class counts `counts`), or
    /// `None` if no split clears `min_impurity_decrease`.
    ///
    /// For each feature only the node's nonzero values are gathered and
    /// sorted; the zeros form one run spliced in at its place in ascending
    /// order, with class counts `counts` minus the nonzeros' counts. The
    /// boundaries, their order, their integer class counts, the midpoint
    /// thresholds and the strict `>` tie-break are those of a full sort of
    /// the node, so the chosen split is bit-identical to it.
    fn best_split(
        &mut self,
        rows: &[usize],
        dense: &[usize],
        counts: &[usize],
        parent_impurity: f64,
    ) -> Option<(usize, f64)> {
        let num_features = self.columns.data.num_features();
        let min_decrease = self.config.min_impurity_decrease;

        // Choose which features to examine.
        let features: Vec<usize> = match self.config.max_features {
            None => (0..num_features).collect(),
            Some(k) if k >= num_features => (0..num_features).collect(),
            Some(k) => {
                // Partial Fisher-Yates using the xorshift state.
                let rng_state = &mut self.rng_state;
                let mut all: Vec<usize> = (0..num_features).collect();
                for pos in 0..k {
                    *rng_state ^= *rng_state << 13;
                    *rng_state ^= *rng_state >> 7;
                    *rng_state ^= *rng_state << 17;
                    let swap = pos + (*rng_state as usize) % (num_features - pos);
                    all.swap(pos, swap);
                }
                all.truncate(k);
                all
            }
        };

        let k = counts.len();
        let total = rows.len();
        let nonzeros = &mut self.nonzeros;
        let nonzero_counts = &mut self.nonzero_counts[..k];
        let left = &mut self.left[..k];
        let right = &mut self.right[..k];
        let mut best: Option<(usize, f64, f64)> = None;
        for feature in features {
            let column = self.columns.column(feature);
            nonzeros.clear();
            for (&r, &class) in rows.iter().zip(dense) {
                let v = column[r];
                if v != 0.0 {
                    nonzeros.push((v, class));
                }
            }
            let zeros = total - nonzeros.len();
            if nonzeros.is_empty() {
                continue; // all zero: constant in this node
            }
            nonzeros.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("feature values are not NaN"));
            if zeros == 0 && nonzeros[0].0 == nonzeros[nonzeros.len() - 1].0 {
                continue; // constant in this node
            }
            if zeros > 0 {
                nonzero_counts.fill(0);
                for &(_, class) in nonzeros.iter() {
                    nonzero_counts[class] += 1;
                }
            }
            let zero_run_at = nonzeros.partition_point(|&(v, _)| v < 0.0);

            left.fill(0);
            right.copy_from_slice(counts);
            let mut left_n = 0;
            // Value of the last example moved left, if any.
            let mut prev: Option<f64> = None;
            let mut consider =
                |left: &[usize], right: &[usize], left_n: usize, v: f64, v_next: f64| {
                    let right_n = total - left_n;
                    let n = total as f64;
                    let weighted = (left_n as f64 / n) * gini(left, left_n)
                        + (right_n as f64 / n) * gini(right, right_n);
                    let decrease = parent_impurity - weighted;
                    if decrease >= min_decrease && best.is_none_or(|(_, _, d)| decrease > d) {
                        best = Some((feature, 0.5 * (v + v_next), decrease));
                    }
                };
            for w in 0..=nonzeros.len() {
                if w == zero_run_at && zeros > 0 {
                    // A zero run never equals a nonzero neighbour, and
                    // `±0.0 + x == x` for nonzero `x`, so the run's sign
                    // of zero cannot change a threshold.
                    if let Some(v) = prev {
                        consider(left, right, left_n, v, 0.0);
                    }
                    for class in 0..k {
                        let z = counts[class] - nonzero_counts[class];
                        left[class] += z;
                        right[class] -= z;
                    }
                    left_n += zeros;
                    prev = Some(0.0);
                }
                let Some(&(v_next, class)) = nonzeros.get(w) else {
                    break;
                };
                if let Some(v) = prev.filter(|&v| v != v_next) {
                    consider(left, right, left_n, v, v_next);
                }
                left[class] += 1;
                right[class] -= 1;
                left_n += 1;
                prev = Some(v_next);
            }
        }
        best.map(|(feature, threshold, _)| (feature, threshold))
    }
}

impl DecisionTree {
    /// Trains a tree on a dataset.
    pub fn fit(data: &Dataset, config: &CartConfig) -> Self {
        Self::fit_rows(&Columns::new(data), (0..data.len()).collect(), config)
    }

    /// Trains a tree on the rows `rows` of `columns`, in that order; a row
    /// may repeat (bootstrap samples). Same tree as fitting on a dataset
    /// holding those rows.
    pub(crate) fn fit_rows(columns: &Columns<'_>, rows: Vec<usize>, config: &CartConfig) -> Self {
        let num_classes = columns.data.num_classes().max(1);
        if rows.is_empty() {
            return DecisionTree {
                nodes: vec![Node::Leaf { class: 0 }],
                depth: 0,
            };
        }
        let mut grower = Grower {
            columns,
            config,
            // Simple xorshift for feature subsampling, seeded per tree.
            rng_state: config.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
            nodes: Vec::new(),
            depth: 0,
            class_counts: vec![0; num_classes],
            slot: vec![0; num_classes],
            nonzeros: Vec::with_capacity(rows.len()),
            nonzero_counts: vec![0; num_classes],
            left: vec![0; num_classes],
            right: vec![0; num_classes],
        };
        grower.build(rows, 0);
        DecisionTree {
            nodes: grower.nodes,
            depth: grower.depth,
        }
    }

    /// Predicts the class of one feature row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let value = row.get(*feature).copied().unwrap_or(0.0);
                    node = if value <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the deepest node.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Model-family name.
    pub fn name(&self) -> &'static str {
        "cart"
    }

    /// The node arena as comparable tuples, thresholds by their bits:
    /// `(feature, threshold bits, left, right)` for a split and
    /// `(usize::MAX, class, 0, 0)` for a leaf.
    #[cfg(test)]
    pub(crate) fn shape(&self) -> Vec<(usize, u64, usize, usize)> {
        Self::shape_of(&self.nodes)
    }

    #[cfg(test)]
    fn shape_of(nodes: &[Node]) -> Vec<(usize, u64, usize, usize)> {
        nodes
            .iter()
            .map(|node| match *node {
                Node::Leaf { class } => (usize::MAX, class as u64, 0, 0),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => (feature, threshold.to_bits(), left, right),
            })
            .collect()
    }
}

impl Classifier for DecisionTree {
    fn predict(&self, row: &[f64]) -> usize {
        DecisionTree::predict(self, row)
    }

    fn name(&self) -> &'static str {
        DecisionTree::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn xor_dataset() -> Dataset {
        // Nonlinear problem a linear model cannot solve but a depth-2 tree can.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            let jitter = i as f64 * 0.01;
            rows.push(vec![0.0 + jitter, 0.0 + jitter]);
            labels.push(0);
            rows.push(vec![1.0 + jitter, 1.0 + jitter]);
            labels.push(0);
            rows.push(vec![0.0 + jitter, 1.0 + jitter]);
            labels.push(1);
            rows.push(vec![1.0 + jitter, 0.0 + jitter]);
            labels.push(1);
        }
        Dataset::from_rows(rows, labels)
    }

    #[test]
    fn learns_xor_perfectly() {
        let data = xor_dataset();
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        assert_eq!(tree.accuracy(&data), 1.0);
    }

    #[test]
    fn depth_limit_is_respected() {
        let data = xor_dataset();
        let stump = DecisionTree::fit(
            &data,
            &CartConfig {
                max_depth: 1,
                ..CartConfig::default()
            },
        );
        assert!(stump.depth() <= 1);
        // A depth-1 stump cannot solve XOR
        assert!(stump.accuracy(&data) < 0.8);
    }

    #[test]
    fn pure_node_becomes_leaf_immediately() {
        let data = Dataset::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]], vec![1, 1, 1]);
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[42.0]), 1);
    }

    #[test]
    fn min_impurity_decrease_prunes_marginal_splits() {
        // Nearly pure data: one lone minority example.
        let mut rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let mut labels = vec![0usize; 50];
        rows.push(vec![25.5]);
        labels.push(1);
        let data = Dataset::from_rows(rows, labels);
        let aggressive = DecisionTree::fit(
            &data,
            &CartConfig {
                min_impurity_decrease: 0.2,
                ..CartConfig::default()
            },
        );
        assert_eq!(aggressive.node_count(), 1, "should collapse to a leaf");
        let lenient = DecisionTree::fit(&data, &CartConfig::default());
        assert!(lenient.node_count() > 1);
    }

    #[test]
    fn multiclass_separable_is_learned() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..6usize {
            for i in 0..15 {
                rows.push(vec![c as f64 * 5.0 + (i as f64) * 0.05, (i % 3) as f64]);
                labels.push(c);
            }
        }
        let data = Dataset::from_rows(rows, labels);
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        assert!(tree.accuracy(&data) > 0.98);
    }

    #[test]
    fn empty_dataset_yields_single_leaf() {
        let data = Dataset::new(3, 2);
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[0.0, 0.0, 0.0]), 0);
    }

    #[test]
    fn identical_rows_with_conflicting_labels_fall_back_to_majority() {
        let data = Dataset::from_rows(vec![vec![1.0, 1.0]; 5], vec![0, 1, 1, 1, 0]);
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        assert_eq!(tree.predict(&[1.0, 1.0]), 1);
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn feature_subsampling_still_learns_reasonably() {
        let data = xor_dataset();
        let tree = DecisionTree::fit(
            &data,
            &CartConfig {
                max_features: Some(1),
                seed: 5,
                ..CartConfig::default()
            },
        );
        // With only one of two features per split it may need extra depth but
        // should still fit training data well.
        assert!(tree.accuracy(&data) > 0.9);
    }

    #[test]
    fn predictions_with_short_rows_use_zero_padding() {
        let data = xor_dataset();
        let tree = DecisionTree::fit(&data, &CartConfig::default());
        let p = tree.predict(&[0.0]);
        assert!(p < 2);
    }

    #[test]
    fn gini_helper_values() {
        assert_eq!(gini(&[0, 0], 0), 0.0);
        assert_eq!(gini(&[5, 0], 5), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert!((gini(&[1, 1, 1, 1], 4) - 0.75).abs() < 1e-12);
    }

    /// The split search as it was before the column-major rewrite, kept as
    /// an oracle: every node copies its row indices and stable-sorts them
    /// by every candidate feature.
    struct Reference {
        nodes: Vec<Node>,
        num_classes: usize,
    }

    impl Reference {
        fn fit(data: &Dataset, config: &CartConfig) -> Vec<Node> {
            let mut tree = Reference {
                nodes: Vec::new(),
                num_classes: data.num_classes().max(1),
            };
            if data.is_empty() {
                return vec![Node::Leaf { class: 0 }];
            }
            let mut rng_state = config.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            tree.build(data, (0..data.len()).collect(), 0, config, &mut rng_state);
            tree.nodes
        }

        fn build(
            &mut self,
            data: &Dataset,
            indices: Vec<usize>,
            depth: usize,
            config: &CartConfig,
            rng_state: &mut u64,
        ) -> usize {
            let mut counts = vec![0usize; self.num_classes];
            for &i in &indices {
                counts[data.labels()[i]] += 1;
            }
            let node_impurity = gini(&counts, indices.len());
            let leaf_class = majority(&counts);
            if depth >= config.max_depth
                || indices.len() < config.min_samples_split
                || node_impurity == 0.0
            {
                self.nodes.push(Node::Leaf { class: leaf_class });
                return self.nodes.len() - 1;
            }
            match self.best_split(data, &indices, &counts, node_impurity, config, rng_state) {
                None => {
                    self.nodes.push(Node::Leaf { class: leaf_class });
                    self.nodes.len() - 1
                }
                Some((feature, threshold, _)) => {
                    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                        .into_iter()
                        .partition(|&i| data.rows()[i][feature] <= threshold);
                    if left_idx.is_empty() || right_idx.is_empty() {
                        self.nodes.push(Node::Leaf { class: leaf_class });
                        return self.nodes.len() - 1;
                    }
                    let my_index = self.nodes.len();
                    self.nodes.push(Node::Leaf { class: leaf_class });
                    let left = self.build(data, left_idx, depth + 1, config, rng_state);
                    let right = self.build(data, right_idx, depth + 1, config, rng_state);
                    self.nodes[my_index] = Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                    my_index
                }
            }
        }

        fn best_split(
            &self,
            data: &Dataset,
            indices: &[usize],
            parent_counts: &[usize],
            parent_impurity: f64,
            config: &CartConfig,
            rng_state: &mut u64,
        ) -> Option<(usize, f64, f64)> {
            let num_features = data.num_features();
            let n = indices.len() as f64;
            let features: Vec<usize> = match config.max_features {
                None => (0..num_features).collect(),
                Some(k) if k >= num_features => (0..num_features).collect(),
                Some(k) => {
                    let mut all: Vec<usize> = (0..num_features).collect();
                    for pos in 0..k {
                        *rng_state ^= *rng_state << 13;
                        *rng_state ^= *rng_state >> 7;
                        *rng_state ^= *rng_state << 17;
                        let swap = pos + (*rng_state as usize) % (num_features - pos);
                        all.swap(pos, swap);
                    }
                    all.truncate(k);
                    all
                }
            };
            let mut best: Option<(usize, f64, f64)> = None;
            for &feature in &features {
                let mut order: Vec<usize> = indices.to_vec();
                order.sort_by(|&a, &b| {
                    data.rows()[a][feature]
                        .partial_cmp(&data.rows()[b][feature])
                        .unwrap()
                });
                let mut left_counts = vec![0usize; self.num_classes];
                let mut right_counts = parent_counts.to_vec();
                for w in 0..order.len() - 1 {
                    let i = order[w];
                    let label = data.labels()[i];
                    left_counts[label] += 1;
                    right_counts[label] -= 1;
                    let v = data.rows()[i][feature];
                    let v_next = data.rows()[order[w + 1]][feature];
                    if v == v_next {
                        continue;
                    }
                    let left_n = w + 1;
                    let right_n = order.len() - left_n;
                    let weighted = (left_n as f64 / n) * gini(&left_counts, left_n)
                        + (right_n as f64 / n) * gini(&right_counts, right_n);
                    let decrease = parent_impurity - weighted;
                    if decrease >= config.min_impurity_decrease
                        && best.is_none_or(|(_, _, d)| decrease > d)
                    {
                        best = Some((feature, 0.5 * (v + v_next), decrease));
                    }
                }
            }
            best
        }
    }

    /// How a random test column draws its values.
    #[derive(Clone, Copy)]
    enum ColumnKind {
        Gaussian,
        /// Small nonnegative counts, nonzero with probability `p`.
        SparseCounts(f64),
        /// A few signed values including both zeros, heavily tied.
        SignedTies,
    }

    fn gaussian(rng: &mut StdRng) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let v: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    fn draw(kind: ColumnKind, rng: &mut StdRng) -> f64 {
        match kind {
            ColumnKind::Gaussian => gaussian(rng),
            ColumnKind::SparseCounts(p) => {
                if rng.gen_bool(p) {
                    rng.gen_range(1..4usize) as f64
                } else {
                    0.0
                }
            }
            ColumnKind::SignedTies => {
                [-2.0, -1.0, -0.5, -0.0, 0.0, 0.0, 0.5, 1.0][rng.gen_range(0..8usize)]
            }
        }
    }

    /// A seeded dataset whose labels depend on the first columns, so trees
    /// grow deep, with some rows duplicated verbatim.
    fn random_dataset(seed: u64, rows: usize, kinds: &[ColumnKind], classes: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new(kinds.len(), classes);
        while data.len() < rows {
            if !data.is_empty() && rng.gen_bool(0.1) {
                let (row, label) = data.example(rng.gen_range(0..data.len()));
                let row = row.to_vec();
                data.push(row, label);
                continue;
            }
            let row: Vec<f64> = kinds.iter().map(|&kind| draw(kind, &mut rng)).collect();
            let signal = row.iter().take(3).sum::<f64>().abs() * 3.0;
            let label = if rng.gen_bool(0.7) {
                signal as usize % classes
            } else {
                rng.gen_range(0..classes)
            };
            data.push(row, label);
        }
        data.with_num_classes(classes)
    }

    fn assert_matches_reference(data: &Dataset, config: &CartConfig) {
        let tree = DecisionTree::fit(data, config);
        assert_eq!(
            tree.shape(),
            DecisionTree::shape_of(&Reference::fit(data, config)),
            "tree differs from the reference on {} rows, config {config:?}",
            data.len()
        );
    }

    #[test]
    fn fit_is_bit_identical_to_the_full_sort_reference() {
        use ColumnKind::*;
        let mixes: [&[ColumnKind]; 4] = [
            &[Gaussian, Gaussian, Gaussian, Gaussian],
            &[
                SparseCounts(0.1),
                SparseCounts(0.03),
                SparseCounts(0.5),
                SparseCounts(0.01),
                Gaussian,
            ],
            &[SignedTies, SignedTies, Gaussian, SignedTies],
            &[
                SignedTies,
                SparseCounts(0.2),
                Gaussian,
                SparseCounts(0.05),
                SignedTies,
                SparseCounts(1.0),
            ],
        ];
        let mut seed = 0;
        for kinds in mixes {
            for (rows, classes) in [(1, 1), (2, 2), (9, 3), (60, 7), (250, 40), (400, 300)] {
                for max_features in [None, Some(1), Some(2), Some(kinds.len())] {
                    seed += 1;
                    let data = random_dataset(seed, rows, kinds, classes);
                    let config = CartConfig {
                        max_features,
                        seed,
                        min_samples_split: 1 + seed as usize % 3,
                        ..CartConfig::default()
                    };
                    assert_matches_reference(&data, &config);
                }
            }
        }
    }

    #[test]
    fn fit_is_bit_identical_on_a_query_log_sized_problem() {
        // The learned pipeline's shape: 769 stored queries, 500 sparse
        // bag-of-words counts plus 4 dense text statistics, 231 buckets.
        let mut kinds = vec![ColumnKind::SparseCounts(0.008); 500];
        kinds.extend([ColumnKind::Gaussian; 4]);
        let data = random_dataset(77, 769, &kinds, 231);
        assert_matches_reference(&data, &CartConfig::default());
        assert_matches_reference(
            &data,
            &CartConfig {
                max_features: Some(23),
                seed: 3,
                ..CartConfig::default()
            },
        );
    }
}
