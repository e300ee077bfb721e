//! Property suite: the three evaluation paths of a fitted model — the node-walking
//! predictor, the compiled engine's row-at-a-time path (`predict_one`, `predict_staged`)
//! and its 16-lane batch kernel (`predict_batch*`) — are **bit-identical** for every input,
//! and reject malformed input with the **same** typed error.
//!
//! The compiled engine routes on `!(x <= t)`, the walker on `x <= t` with the branches
//! swapped, so both send NaN right (it fails every comparison), -∞ always left and +∞
//! always right. Bit-identity therefore must hold for *arbitrary* fitted models and
//! *arbitrary* inputs: subsampled and column-subsampled ensembles, single-leaf trees,
//! rows carrying NaN and ±∞, staged prediction and every thread count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_ml::compiled::CompiledEnsemble;
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_ml::tree::{RegressionTree, TreeParams};
use surf_ml::MlError;

/// Unstructured regression data: features in [-3, 3), a rough nonlinear target.
fn random_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let features: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(-3.0..3.0)).collect())
        .collect();
    let targets: Vec<f64> = features
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| ((i + 2) as f64 * v).sin() + 0.25 * v * v)
                .sum()
        })
        .collect();
    (features, targets)
}

/// Probe points both inside and far outside the training range.
fn probes(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(-50.0..50.0)).collect())
        .collect()
}

/// Probe points with non-finite entries sprinkled in: every row carries at least one of
/// NaN, +∞ or -∞ (in rotation), the rest stay finite.
fn non_finite_probes(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    (0..n)
        .map(|row| {
            let mut values: Vec<f64> = (0..d).map(|_| rng.random_range(-10.0..10.0)).collect();
            values[row % d] = specials[row % specials.len()];
            values
        })
        .collect()
}

fn flatten(rows: &[Vec<f64>]) -> Vec<f64> {
    rows.iter().flatten().copied().collect()
}

/// Asserts the compiled engine's row path and its batch kernel at `threads` both
/// reproduce `walker` bit for bit.
fn assert_three_way(
    inputs: &[Vec<f64>],
    walker: &[f64],
    compiled: &CompiledEnsemble,
    d: usize,
    threads: usize,
) {
    for (row, expected) in inputs.iter().zip(walker) {
        assert_eq!(
            compiled.predict_one(row).unwrap().to_bits(),
            expected.to_bits()
        );
    }
    let batch = compiled
        .predict_batch_threaded(&flatten(inputs), d, threads)
        .unwrap();
    assert_eq!(batch.len(), walker.len());
    for (got, expected) in batch.iter().zip(walker) {
        assert_eq!(got.to_bits(), expected.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Walker, compiled `predict_one` and compiled `predict_batch_threaded` agree bit for
    /// bit on arbitrary finite inputs, across subsampled and column-subsampled ensembles.
    #[test]
    fn three_engine_bit_parity(
        n in 5usize..=120,
        d in 1usize..=5,
        n_estimators in 1usize..=12,
        max_depth in 1usize..=6,
        subsample in 0.6f64..=1.0,
        colsample in 0.4f64..=1.0,
        threads in 1usize..=4,
        seed in 0u64..10_000,
    ) {
        let (x, y) = random_data(n, d, seed);
        let params = GbrtParams {
            n_estimators,
            max_depth,
            subsample,
            colsample,
            seed,
            ..GbrtParams::quick()
        };
        let model = Gbrt::fit(&x, &y, &params).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        prop_assert_eq!(compiled.n_trees(), model.n_trees());

        let inputs: Vec<Vec<f64>> = x.into_iter().chain(probes(20, d, seed)).collect();
        let walker = model.predict(&inputs).unwrap();
        assert_three_way(&inputs, &walker, &compiled, d, threads);
    }

    /// Rows carrying NaN and ±∞ predict bit-identically on all three paths: NaN fails
    /// every split condition and exits right, -∞ goes left at every split, +∞ right.
    #[test]
    fn non_finite_rows_bit_parity(
        n in 5usize..=60,
        d in 1usize..=5,
        n_estimators in 1usize..=10,
        max_depth in 1usize..=6,
        threads in 1usize..=4,
        seed in 0u64..10_000,
    ) {
        let (x, y) = random_data(n, d, seed);
        let params = GbrtParams {
            n_estimators,
            max_depth,
            seed,
            ..GbrtParams::quick()
        };
        let model = Gbrt::fit(&x, &y, &params).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();

        let inputs = non_finite_probes(24, d, seed);
        let walker = model.predict(&inputs).unwrap();
        assert_three_way(&inputs, &walker, &compiled, d, threads);
    }

    /// Staged prediction (any number of rounds, including 0 and past the end) matches the
    /// walker bit for bit, on finite and non-finite rows alike.
    #[test]
    fn staged_bit_parity(
        n in 10usize..=80,
        d in 1usize..=3,
        n_estimators in 1usize..=10,
        rounds in 0usize..=14,
        seed in 0u64..10_000,
    ) {
        let (x, y) = random_data(n, d, seed);
        let params = GbrtParams {
            n_estimators,
            ..GbrtParams::quick()
        };
        let model = Gbrt::fit(&x, &y, &params).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        for row in x.iter().take(10).chain(&non_finite_probes(6, d, seed)) {
            prop_assert_eq!(
                compiled.predict_staged(row, rounds).unwrap().to_bits(),
                model.predict_staged(row, rounds).unwrap().to_bits()
            );
        }
    }

    /// A single compiled tree matches the tree walker bit for bit on all three paths —
    /// including trees that collapse to a single leaf (constant targets) and rows carrying
    /// NaN and ±∞.
    #[test]
    fn tree_bit_parity(
        n in 2usize..=100,
        d in 1usize..=4,
        max_depth in 1usize..=8,
        constant_flag in 0usize..=1,
        seed in 0u64..10_000,
    ) {
        let constant_targets = constant_flag == 1;
        let (x, mut y) = random_data(n, d, seed);
        if constant_targets {
            y = vec![2.5; n];
        }
        let params = TreeParams { max_depth, ..TreeParams::default() };
        let tree = RegressionTree::fit(&x, &y, &params).unwrap();
        let compiled = CompiledEnsemble::from_tree(&tree).unwrap();
        if constant_targets {
            prop_assert_eq!(tree.node_count(), 1);
        }
        let inputs: Vec<Vec<f64>> = x
            .into_iter()
            .chain(probes(10, d, seed))
            .chain(non_finite_probes(12, d, seed))
            .collect();
        let walker = tree.predict(&inputs).unwrap();
        assert_three_way(&inputs, &walker, &compiled, d, 1);
    }

    /// Empty batches yield empty outputs on both engines, and a width mismatch is the
    /// same typed error from the walker and the compiled engine at every entry point.
    #[test]
    fn empty_batches_and_width_mismatches(
        d in 1usize..=4,
        offset in 1usize..=6,
        seed in 0u64..1_000,
    ) {
        // `wrong` is always a different, positive width.
        let wrong = d + offset;
        let (x, y) = random_data(30, d, seed);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(3)).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();

        prop_assert!(model.predict(&[]).unwrap().is_empty());
        prop_assert!(compiled.predict_batch_threaded(&[], d, 3).unwrap().is_empty());

        let mismatch = Err(MlError::FeatureWidthMismatch { expected: d, actual: wrong });
        let row = vec![0.5; wrong];
        prop_assert_eq!(model.predict_one(&row), mismatch.clone());
        prop_assert_eq!(compiled.predict_one(&row), mismatch.clone());
        prop_assert_eq!(model.predict_staged(&row, 1), mismatch.clone());
        prop_assert_eq!(compiled.predict_staged(&row, 1), mismatch.clone());
        prop_assert_eq!(
            model.predict(std::slice::from_ref(&row)).map(|_| 0.0),
            mismatch.clone()
        );
        prop_assert_eq!(
            compiled.predict_batch_threaded(&row, wrong, 2).map(|_| 0.0),
            mismatch
        );
    }
}
