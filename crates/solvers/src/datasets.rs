//! Synthetic dataset generators matching the paper's Table 2.
//!
//! The originals (Matlab-generated Gaussian mixtures, Yahoo! Finance
//! index series) are not redistributable; these seeded generators
//! reproduce their *shape* — sample counts, dimensionality, cluster
//! structure, autocorrelation — which is what drives the convergence and
//! quality behaviour the paper reports (see DESIGN.md §2).

use approx_arith::rng::Pcg32;
use approx_linalg::CsrMatrix;

/// A labelled clustering dataset (for GMM and k-means).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterDataset {
    /// Dataset name (e.g. `"3cluster"`).
    pub name: String,
    /// Sample points, all of equal dimension.
    pub points: Vec<Vec<f64>>,
    /// Ground-truth cluster labels in `0..k`.
    pub labels: Vec<usize>,
    /// Number of clusters.
    pub k: usize,
}

impl ClusterDataset {
    /// Dimensionality of the points.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.points[0].len()
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the dataset has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Generate isotropic Gaussian blobs.
///
/// `sizes`, `centers` and `stds` must have one entry per cluster; the
/// points are emitted cluster-by-cluster and then shuffled (seeded), so
/// the labels remain aligned.
///
/// # Panics
/// Panics if the per-cluster arrays have different lengths, are empty,
/// or the centers have inconsistent dimensions.
#[must_use]
pub fn gaussian_blobs(
    name: &str,
    sizes: &[usize],
    centers: &[Vec<f64>],
    stds: &[f64],
    seed: u64,
) -> ClusterDataset {
    assert!(!sizes.is_empty(), "at least one cluster is required");
    assert_eq!(sizes.len(), centers.len(), "one center per cluster");
    assert_eq!(sizes.len(), stds.len(), "one std per cluster");
    let dim = centers[0].len();
    let mut rng = Pcg32::seeded(seed, 0);
    let mut points = Vec::new();
    let mut labels = Vec::new();
    for (cluster, ((&n, center), &std)) in sizes.iter().zip(centers).zip(stds).enumerate() {
        assert_eq!(
            center.len(),
            dim,
            "all centers must have the same dimension"
        );
        for _ in 0..n {
            let p: Vec<f64> = center.iter().map(|&c| rng.gaussian(c, std)).collect();
            points.push(p);
            labels.push(cluster);
        }
    }
    // Shuffle points and labels with the same permutation.
    let mut order: Vec<usize> = (0..points.len()).collect();
    rng.shuffle(&mut order);
    let points = order.iter().map(|&i| points[i].clone()).collect();
    let labels = order.iter().map(|&i| labels[i]).collect();
    ClusterDataset {
        name: name.to_owned(),
        points,
        labels,
        k: sizes.len(),
    }
}

/// The `3cluster` dataset: 1000 2-D samples, 3 well-separated clusters
/// (paper Table 2, row 1).
#[must_use]
pub fn three_cluster() -> ClusterDataset {
    gaussian_blobs(
        "3cluster",
        &[334, 333, 333],
        &[vec![0.0, 0.0], vec![9.0, 1.0], vec![4.5, 8.0]],
        &[1.1, 1.0, 1.2],
        0x3C1,
    )
}

/// The `3d3cluster` dataset: 1900 3-D samples, 3 partially overlapping
/// clusters (paper Table 2, row 2 — the dataset on which even level 4
/// misclusters hundreds of points).
#[must_use]
pub fn three_d_three_cluster() -> ClusterDataset {
    gaussian_blobs(
        "3d3cluster",
        &[634, 633, 633],
        &[
            vec![0.0, 0.0, 0.0],
            vec![3.8, 2.8, 1.0],
            vec![1.4, 3.9, 3.5],
        ],
        &[1.3, 1.25, 1.3],
        0x3D3,
    )
}

/// The `4cluster` dataset: 2350 2-D samples, 4 clusters of mixed
/// separation (paper Table 2, row 3).
#[must_use]
pub fn four_cluster() -> ClusterDataset {
    gaussian_blobs(
        "4cluster",
        &[588, 588, 587, 587],
        &[
            vec![0.0, 0.0],
            vec![6.5, 1.0],
            vec![2.0, 6.0],
            vec![7.5, 6.5],
        ],
        &[1.2, 1.1, 1.3, 1.0],
        0x4C1,
    )
}

/// A univariate time series for autoregression (paper Table 2, rows 4–6).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesDataset {
    /// Dataset name (e.g. `"hangseng"`).
    pub name: String,
    /// The (standardized) series values.
    pub values: Vec<f64>,
    /// Autoregression order `p` (the paper uses 10 lags).
    pub order: usize,
}

impl SeriesDataset {
    /// Number of regression samples after windowing: `len − order`.
    #[must_use]
    pub fn num_samples(&self) -> usize {
        self.values.len().saturating_sub(self.order)
    }

    /// Window the series into a lag design matrix and target vector:
    /// row `t` is `[x_{t+p−1}, …, x_t]` predicting `y = x_{t+p}`.
    ///
    /// # Panics
    /// Panics if the series is not longer than its order.
    #[must_use]
    pub fn to_regression(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let p = self.order;
        assert!(self.values.len() > p, "series shorter than its order");
        let n = self.num_samples();
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for t in 0..n {
            let row: Vec<f64> = (0..p).map(|lag| self.values[t + p - 1 - lag]).collect();
            x.push(row);
            y.push(self.values[t + p]);
        }
        (x, y)
    }
}

/// Synthesize a stationary AR(`coeffs.len()`) series of `len` values,
/// standardized to zero mean and unit variance.
///
/// # Panics
/// Panics if `coeffs` is empty, `len <= coeffs.len()`, or `noise_std` is
/// not positive.
#[must_use]
pub fn ar_series(
    name: &str,
    len: usize,
    coeffs: &[f64],
    noise_std: f64,
    seed: u64,
) -> SeriesDataset {
    let p = coeffs.len();
    assert!(p > 0, "at least one AR coefficient is required");
    assert!(len > p, "series must be longer than its order");
    assert!(noise_std > 0.0, "noise std must be positive");
    let mut rng = Pcg32::seeded(seed, 1);
    let mut values = Vec::with_capacity(len);
    // Burn-in from noise-only start.
    for _ in 0..p {
        values.push(rng.gaussian(0.0, noise_std));
    }
    for t in p..len + 200 {
        let mut v = rng.gaussian(0.0, noise_std);
        for (lag, &c) in coeffs.iter().enumerate() {
            v += c * values[t - 1 - lag];
        }
        values.push(v);
    }
    // Drop burn-in, keep the last `len` values.
    let values: Vec<f64> = values[values.len() - len..].to_vec();
    // Standardize.
    let mean = values.iter().sum::<f64>() / len as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / len as f64;
    let std = var.sqrt().max(1e-12);
    let values = values.iter().map(|v| (v - mean) / std).collect();
    SeriesDataset {
        name: name.to_owned(),
        values,
        order: p,
    }
}

/// Paper-shaped AR(10) coefficient set: a damped, mildly oscillatory
/// response typical of daily index returns-plus-momentum models.
fn index_coeffs(tilt: f64) -> [f64; 10] {
    [
        0.32 + tilt,
        0.18,
        0.10,
        0.05,
        -0.04,
        0.06,
        -0.03,
        0.02,
        0.04,
        -0.02,
    ]
}

/// HangSeng-like series: 6694 regression samples of order 10.
#[must_use]
pub fn hang_seng_like() -> SeriesDataset {
    ar_series("hangseng", 6704, &index_coeffs(0.05), 1.0, 0x4A11)
}

/// NASDAQ-Composite-like series: 10799 regression samples of order 10.
#[must_use]
pub fn nasdaq_like() -> SeriesDataset {
    ar_series("nasdaq", 10809, &index_coeffs(0.0), 1.0, 0x4A12)
}

/// S&P-500-like series: 16080 regression samples of order 10.
#[must_use]
pub fn sp500_like() -> SeriesDataset {
    ar_series("sp500", 16090, &index_coeffs(-0.04), 1.0, 0x4A13)
}

/// A seeded small-world digraph for the PageRank workload: a directed
/// ring (`u → u+1 mod n`, so every node has out-degree ≥ 1 and the
/// graph is strongly connected) plus `chords` random long-range edges
/// per node. Returned as a [`CsrMatrix`] adjacency *structure* — row
/// `u` lists the out-neighbours of `u`; stored values are all 1.
///
/// # Panics
/// Panics if `n < 2`.
#[must_use]
pub fn ring_with_chords(n: usize, chords: usize, seed: u64) -> CsrMatrix {
    assert!(n >= 2, "a ring needs at least two nodes (got {n})");
    let mut rng = Pcg32::seeded(seed, 0x9a6e);
    let mut triplets = Vec::with_capacity(n * (1 + chords));
    for u in 0..n {
        triplets.push((u, (u + 1) % n, 1.0));
        for _ in 0..chords {
            let v = rng.below(n as u64) as usize;
            if v != u {
                // Duplicate chords fold together in from_triplets; the
                // structure (which columns exist) is all that matters.
                triplets.push((u, v, 1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// Sources `f` for the 2-D Poisson problem `−Δu = f` on the unit
/// square with homogeneous Dirichlet boundaries — the finite-difference
/// PDE workload the paper's introduction motivates.
///
/// [`rhs`](Self::rhs) turns a source into the right-hand side of the
/// unscaled 5-point system [`CsrMatrix::poisson5`]`(n, n)`, so any
/// operator solver (Jacobi, multigrid, CG) runs the PDE.
///
/// # Example
///
/// ```
/// use approx_arith::ExactContext;
/// use approx_linalg::CsrMatrix;
/// use iter_solvers::datasets::{sine_solution, PoissonSource};
/// use iter_solvers::{IterativeMethod, Jacobi};
///
/// let n = 15;
/// let b = PoissonSource::Sine { amplitude: 8.0 }.rhs(n);
/// let pde = Jacobi::new(CsrMatrix::poisson5(n, n), b, 0.8, 1e-7, 2000);
/// let mut ctx = ExactContext::new();
/// let mut u = pde.initial_state();
/// for _ in 0..500 {
///     u = pde.step(&u, &mut ctx);
/// }
/// // The center value approaches the analytic peak (8.0).
/// let center = (n * n) / 2;
/// assert!((u[center] - sine_solution(n, 8.0)[center]).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoissonSource {
    /// `f(x, y) = 2π²·amplitude·sin(πx)sin(πy)` — the smooth benchmark
    /// with the closed-form solution [`sine_solution`].
    Sine {
        /// Peak of the analytic solution.
        amplitude: f64,
    },
    /// A point load at the grid node nearest `(x, y)`.
    Point {
        /// Load position, in `[0, 1]²`.
        x: f64,
        /// Load position, in `[0, 1]²`.
        y: f64,
        /// Load strength.
        strength: f64,
    },
}

impl PoissonSource {
    /// The right-hand side `b = h²·f` on the `n × n` interior grid
    /// (row-major, `h = 1/(n+1)`), matching [`CsrMatrix::poisson5`]`(n, n)`.
    ///
    /// # Panics
    /// Panics if `n` is 0.
    #[must_use]
    pub fn rhs(self, n: usize) -> Vec<f64> {
        assert!(n > 0, "grid must be non-empty");
        let h = 1.0 / (n + 1) as f64;
        match self {
            Self::Sine { amplitude } => {
                let scale = 2.0 * std::f64::consts::PI * std::f64::consts::PI * h * h;
                sine_solution(n, amplitude)
                    .into_iter()
                    .map(|u| scale * u)
                    .collect()
            }
            Self::Point { x, y, strength } => {
                let mut b = vec![0.0; n * n];
                let j = ((x / h).round() as usize).clamp(1, n) - 1;
                let i = ((y / h).round() as usize).clamp(1, n) - 1;
                // f = strength/h² at one node, so h²·f = strength.
                b[i * n + j] = strength;
                b
            }
        }
    }
}

/// The analytic solution `amplitude·sin(πx)sin(πy)` of
/// [`PoissonSource::Sine`], sampled on the `n × n` interior grid
/// (row-major) — the reference for the true discretization error.
#[must_use]
pub fn sine_solution(n: usize, amplitude: f64) -> Vec<f64> {
    let pi = std::f64::consts::PI;
    let h = 1.0 / (n + 1) as f64;
    let mut u = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let (x, y) = ((j + 1) as f64 * h, (i + 1) as f64 * h);
            u[i * n + j] = amplitude * (pi * x).sin() * (pi * y).sin();
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_cluster_datasets_match_table2() {
        let d = three_cluster();
        assert_eq!((d.len(), d.dim(), d.k), (1000, 2, 3));
        let d = three_d_three_cluster();
        assert_eq!((d.len(), d.dim(), d.k), (1900, 3, 3));
        let d = four_cluster();
        assert_eq!((d.len(), d.dim(), d.k), (2350, 2, 4));
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(three_cluster(), three_cluster());
        assert_eq!(hang_seng_like(), hang_seng_like());
    }

    #[test]
    fn labels_are_aligned_with_clusters() {
        // The empirical mean of each labelled group must sit near its
        // generating center.
        let d = three_cluster();
        let centers = [vec![0.0, 0.0], vec![9.0, 1.0], vec![4.5, 8.0]];
        for (c, center) in centers.iter().enumerate() {
            let members: Vec<&Vec<f64>> = d
                .points
                .iter()
                .zip(&d.labels)
                .filter(|(_, &l)| l == c)
                .map(|(p, _)| p)
                .collect();
            assert!(!members.is_empty());
            for dim in 0..2 {
                let mean: f64 = members.iter().map(|p| p[dim]).sum::<f64>() / members.len() as f64;
                assert!(
                    (mean - center[dim]).abs() < 0.3,
                    "cluster {c} dim {dim}: mean {mean} vs center {}",
                    center[dim]
                );
            }
        }
    }

    #[test]
    fn series_datasets_match_table2_sample_counts() {
        assert_eq!(hang_seng_like().num_samples(), 6694);
        assert_eq!(nasdaq_like().num_samples(), 10799);
        assert_eq!(sp500_like().num_samples(), 16080);
    }

    #[test]
    fn series_is_standardized() {
        let s = nasdaq_like();
        let n = s.values.len() as f64;
        let mean = s.values.iter().sum::<f64>() / n;
        let var = s
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 1e-10);
        assert!((var - 1.0).abs() < 1e-10);
    }

    #[test]
    fn series_is_autocorrelated() {
        // Lag-1 autocorrelation must be clearly positive (the AR
        // structure the regression is supposed to recover).
        let s = hang_seng_like();
        let r1: f64 =
            s.values.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / (s.values.len() - 1) as f64;
        assert!(r1 > 0.2, "lag-1 autocorrelation {r1}");
    }

    #[test]
    fn regression_windows_are_consistent() {
        let s = ar_series("t", 30, &[0.5, 0.2], 1.0, 9);
        let (x, y) = s.to_regression();
        assert_eq!(x.len(), 28);
        assert_eq!(y.len(), 28);
        // Row t must be [v[t+1], v[t]] and target v[t+2].
        assert_eq!(x[0], vec![s.values[1], s.values[0]]);
        assert_eq!(y[0], s.values[2]);
        assert_eq!(x[27], vec![s.values[28], s.values[27]]);
        assert_eq!(y[27], s.values[29]);
    }

    #[test]
    #[should_panic(expected = "one center per cluster")]
    fn mismatched_blob_spec_panics() {
        let _ = gaussian_blobs("x", &[10, 10], &[vec![0.0]], &[1.0, 1.0], 1);
    }
}
