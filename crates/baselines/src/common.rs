//! Shared helpers for the baseline implementations.

use rand::rngs::StdRng;
use rand::RngExt;
use targad_linalg::{rng as lrng, Matrix};

/// Reports one training-epoch loss for a baseline to the telemetry hub.
///
/// Always bumps the `train.epochs` counter; when telemetry is enabled and
/// a JSONL sink is installed (see [`targad_obs::hub`]), also emits a
/// `model_epoch` event line. A no-op otherwise — baselines stay
/// observer-free and pay nothing when telemetry is off.
pub fn observe_epoch(model: &'static str, epoch: usize, loss: f64) {
    targad_obs::hub::training_epoch(model, epoch, loss);
}

/// Squared Euclidean distance between two feature rows.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Mean row of a matrix (`1 x D`).
///
/// # Panics
/// Panics on an empty matrix.
pub fn mean_row(x: &Matrix) -> Vec<f64> {
    assert!(x.rows() > 0, "mean_row: empty matrix");
    let mut mean = vec![0.0; x.cols()];
    for row in x.iter_rows() {
        for (m, &v) in mean.iter_mut().zip(row) {
            *m += v;
        }
    }
    let inv = 1.0 / x.rows() as f64;
    for m in &mut mean {
        *m *= inv;
    }
    mean
}

/// LeSiNN-style outlierness: the average distance to the nearest neighbour
/// within each of `ensembles` random subsamples of size `psi`. Cheap,
/// parameter-light, and good enough to seed candidate sets (used by REPEN
/// and ADOA's filtering stage).
pub fn lesinn_scores(
    x: &Matrix,
    reference: &Matrix,
    ensembles: usize,
    psi: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let n_ref = reference.rows();
    let psi = psi.min(n_ref).max(1);
    let mut scores = vec![0.0; x.rows()];
    for _ in 0..ensembles {
        let sample = lrng::sample_indices(rng, n_ref, psi);
        for (i, score) in scores.iter_mut().enumerate() {
            let row = x.row(i);
            let nn = sample
                .iter()
                .map(|&j| sq_dist(row, reference.row(j)))
                .fold(f64::INFINITY, f64::min);
            *score += nn.sqrt();
        }
    }
    for s in &mut scores {
        *s /= ensembles as f64;
    }
    scores
}

/// Indices of the `count` smallest values (ascending by value).
pub fn smallest_indices(values: &[f64], count: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaN in ranking"));
    idx.truncate(count.min(values.len()));
    idx
}

/// Indices of the `count` largest values (descending by value).
pub fn largest_indices(values: &[f64], count: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).expect("NaN in ranking"));
    idx.truncate(count.min(values.len()));
    idx
}

/// Draws `count` random rows (with replacement) as a new matrix.
pub fn sample_rows_with_replacement(x: &Matrix, count: usize, rng: &mut StdRng) -> Matrix {
    let idx: Vec<usize> = (0..count).map(|_| rng.random_range(0..x.rows())).collect();
    x.take_rows(&idx)
}

/// Standard-normal noise matrix (GAN latent input).
pub fn latent_noise(rows: usize, dims: usize, rng: &mut StdRng) -> Matrix {
    lrng::normal_matrix(rng, rows, dims, 0.0, 1.0)
}

/// Fits the detector `build` makes once per worker count {1, 2, 7} and
/// asserts its engine-backed [`Detector::score`] equals `reference` bit for
/// bit. Fitting is worker-count invariant, so each refit trains the
/// identical model and the comparison isolates scoring.
#[cfg(test)]
pub(crate) fn assert_engine_matches_reference<D: crate::Detector>(
    build: impl Fn(targad_runtime::Runtime) -> D,
    reference: impl Fn(&D, &Matrix) -> Vec<f64>,
) {
    let bundle = targad_data::GeneratorSpec::quick_demo().generate(67);
    let view = crate::TrainView::from_dataset(&bundle.train);
    let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    for workers in [1, 2, 7] {
        let mut model = build(targad_runtime::Runtime::new(workers));
        model.fit(&view, 11).unwrap();
        let engine = model.score(&bundle.test.features);
        let want = reference(&model, &bundle.test.features);
        assert_eq!(bits(&engine), bits(&want), "workers = {workers}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_dist_basics() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn mean_row_is_columnwise() {
        let x = Matrix::from_rows(&[vec![1.0, 3.0], vec![3.0, 5.0]]);
        assert_eq!(mean_row(&x), vec![2.0, 4.0]);
    }

    #[test]
    fn lesinn_ranks_outliers_above_inliers() {
        let mut rng = lrng::seeded(1);
        let mut rows = vec![];
        for i in 0..50 {
            rows.push(vec![0.5 + 0.01 * (i as f64 % 5.0), 0.5]);
        }
        rows.push(vec![0.95, 0.05]); // clear outlier
        let x = Matrix::from_rows(&rows);
        let scores = lesinn_scores(&x, &x, 10, 8, &mut rng);
        let outlier = scores[50];
        let max_inlier = scores[..50]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(outlier > max_inlier);
    }

    #[test]
    fn index_rankers() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(smallest_indices(&v, 2), vec![1, 2]);
        assert_eq!(largest_indices(&v, 2), vec![0, 2]);
        assert_eq!(smallest_indices(&v, 10).len(), 3);
    }
}
