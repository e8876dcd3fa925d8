//! Bit-identity oracle for `GaussianMixture`'s exact quantities.
//!
//! `objective`, `gradient`, `responsibilities`, `assignments` and the
//! E-step all run on one shared per-point log-posterior pass. This file
//! keeps an independent, deliberately naive copy of the per-point
//! formulas — one fresh vector per difference, matvec and log-posterior,
//! precisions recomputed per quantity — and pins the fast pass to it bit
//! for bit: on iterates of runs at every accuracy level, on a state whose
//! covariance is singular (the ridge path), and on whole controller runs
//! under both reconfiguration strategies.

use approx_arith::{AccuracyLevel, ArithContext, EnergyProfile, QcsContext};
use approx_linalg::{decomp, stats, vector, Matrix};
use approxit::{characterize, AdaptiveAngleStrategy, IncrementalStrategy, RunConfig, RunReport};
use iter_solvers::datasets::{gaussian_blobs, three_d_three_cluster, ClusterDataset};
use iter_solvers::{GaussianMixture, GmmState, IterativeMethod};

fn profile() -> EnergyProfile {
    EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
}

/// Heavily overlapping clusters: EM converges slowly, so the strategies
/// switch levels and take rollbacks along the way.
fn slow_data() -> ClusterDataset {
    gaussian_blobs(
        "slow",
        &[70, 70, 70],
        &[vec![0.0, 0.0], vec![3.6, 0.6], vec![1.4, 3.2]],
        &[1.2, 1.2, 1.2],
        23,
    )
}

// --- The reference formulas -------------------------------------------

fn ref_precisions(state: &GmmState) -> Vec<(Matrix, f64)> {
    state
        .covariances
        .iter()
        .map(|cov| {
            let mut ridged = cov.clone();
            let mut ridge = 0.0;
            loop {
                match (decomp::inverse(&ridged), decomp::determinant(&ridged)) {
                    (Ok(inv), Ok(det)) if det > 0.0 => return (inv, det.ln()),
                    _ => {
                        ridge = if ridge == 0.0 { 1e-6 } else { ridge * 10.0 };
                        ridged = cov.clone();
                        for d in 0..ridged.rows() {
                            ridged[(d, d)] += ridge;
                        }
                        assert!(ridge < 1e6, "covariance could not be regularized");
                    }
                }
            }
        })
        .collect()
}

fn ref_log_posts(
    gmm: &GaussianMixture,
    state: &GmmState,
    precisions: &[(Matrix, f64)],
    x: &[f64],
) -> Vec<f64> {
    let dim = gmm.points()[0].len() as f64;
    let log_norm = -0.5 * dim * (2.0 * std::f64::consts::PI).ln();
    (0..gmm.k())
        .map(|c| {
            let (inv, logdet) = &precisions[c];
            let diff: Vec<f64> = x
                .iter()
                .zip(&state.means[c])
                .map(|(&xi, &mi)| xi - mi)
                .collect();
            let q = vector::dot_exact(&diff, &inv.matvec_exact(&diff));
            state.weights[c].max(1e-300).ln() + log_norm - 0.5 * logdet - 0.5 * q
        })
        .collect()
}

fn ref_responsibilities(gmm: &GaussianMixture, state: &GmmState) -> Vec<Vec<f64>> {
    let precisions = ref_precisions(state);
    gmm.points()
        .iter()
        .map(|x| {
            let log_posts = ref_log_posts(gmm, state, &precisions, x);
            let max = log_posts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = log_posts.iter().map(|&lp| (lp - max).exp()).collect();
            let total: f64 = exps.iter().sum();
            exps.iter().map(|&e| e / total.max(1e-300)).collect()
        })
        .collect()
}

fn ref_assignments(gmm: &GaussianMixture, state: &GmmState) -> Vec<usize> {
    ref_responsibilities(gmm, state)
        .iter()
        .map(|r| {
            r.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite responsibilities"))
                .map(|(i, _)| i)
                .expect("k > 0")
        })
        .collect()
}

fn ref_objective(gmm: &GaussianMixture, state: &GmmState) -> f64 {
    let precisions = ref_precisions(state);
    let mut nll = 0.0;
    for x in gmm.points() {
        let log_posts = ref_log_posts(gmm, state, &precisions, x);
        let max = log_posts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lse = max
            + log_posts
                .iter()
                .map(|&lp| (lp - max).exp())
                .sum::<f64>()
                .ln();
        nll -= lse;
    }
    nll / gmm.points().len() as f64
}

fn ref_gradient(gmm: &GaussianMixture, state: &GmmState) -> Vec<f64> {
    let resp = ref_responsibilities(gmm, state);
    let precisions = ref_precisions(state);
    let dim = gmm.points()[0].len();
    let n = gmm.points().len() as f64;
    let mut grad = Vec::with_capacity(gmm.k() * dim);
    for c in 0..gmm.k() {
        let (inv, _) = &precisions[c];
        let mut acc = vec![0.0; dim];
        for (x, r) in gmm.points().iter().zip(&resp) {
            let diff: Vec<f64> = state.means[c]
                .iter()
                .zip(x)
                .map(|(&mi, &xi)| mi - xi)
                .collect();
            let v = inv.matvec_exact(&diff);
            for (a, vi) in acc.iter_mut().zip(&v) {
                *a += r[c] * vi;
            }
        }
        grad.extend(acc.iter().map(|a| a / n));
    }
    grad
}

fn ref_step(gmm: &GaussianMixture, state: &GmmState, ctx: &mut dyn ArithContext) -> GmmState {
    let resp = ref_responsibilities(gmm, state);
    let n = gmm.points().len() as f64;
    let mut means = Vec::with_capacity(gmm.k());
    let mut covariances = Vec::with_capacity(gmm.k());
    let mut weights = Vec::with_capacity(gmm.k());
    for c in 0..gmm.k() {
        let rc: Vec<f64> = resp.iter().map(|r| r[c]).collect();
        let nk: f64 = rc.iter().sum();
        let mean =
            stats::weighted_mean(ctx, gmm.points(), &rc).unwrap_or_else(|| state.means[c].clone());
        // The model's ridge (1e-6) is private; it is the same constant.
        let cov = stats::covariance_exact(gmm.points(), &mean, Some(&rc), 1e-6);
        means.push(mean);
        covariances.push(cov);
        weights.push((nk / n).max(1e-12));
    }
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    GmmState {
        means,
        covariances,
        weights,
    }
}

/// `GaussianMixture` with every exact quantity and the E-step replaced by
/// the reference formulas; the rest forwards to the model.
struct Reference<'a>(&'a GaussianMixture);

impl IterativeMethod for Reference<'_> {
    type State = GmmState;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn initial_state(&self) -> GmmState {
        self.0.initial_state()
    }

    fn step(&self, state: &GmmState, ctx: &mut dyn ArithContext) -> GmmState {
        ref_step(self.0, state, ctx)
    }

    fn objective(&self, state: &GmmState) -> f64 {
        ref_objective(self.0, state)
    }

    fn gradient(&self, state: &GmmState) -> Option<Vec<f64>> {
        Some(ref_gradient(self.0, state))
    }

    fn params(&self, state: &GmmState) -> Vec<f64> {
        self.0.params(state)
    }

    fn converged(&self, prev: &GmmState, next: &GmmState) -> bool {
        self.0.converged(prev, next)
    }

    fn max_iterations(&self) -> usize {
        self.0.max_iterations()
    }
}

// --- Assertions --------------------------------------------------------

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_quantities_match(gmm: &GaussianMixture, state: &GmmState, what: &str) {
    assert_eq!(
        gmm.objective(state).to_bits(),
        ref_objective(gmm, state).to_bits(),
        "{what}: objective"
    );
    assert_eq!(
        bits(&gmm.gradient(state).expect("GMM has a gradient")),
        bits(&ref_gradient(gmm, state)),
        "{what}: gradient"
    );
    let resp: Vec<Vec<u64>> = gmm
        .responsibilities(state)
        .iter()
        .map(|r| bits(r))
        .collect();
    let ref_resp: Vec<Vec<u64>> = ref_responsibilities(gmm, state)
        .iter()
        .map(|r| bits(r))
        .collect();
    assert_eq!(resp, ref_resp, "{what}: responsibilities");
    assert_eq!(
        gmm.assignments(state),
        ref_assignments(gmm, state),
        "{what}: assignments"
    );
}

fn assert_states_match(a: &GmmState, b: &GmmState, what: &str) {
    let flat = |s: &GmmState| {
        let mut v: Vec<f64> = s.means.iter().flatten().copied().collect();
        for cov in &s.covariances {
            v.extend_from_slice(cov.as_slice());
        }
        v.extend_from_slice(&s.weights);
        bits(&v)
    };
    assert_eq!(flat(a), flat(b), "{what}: step");
}

/// Steps `gmm` at `level` from the initial state for up to `steps`
/// iterations, checking every iterate's exact quantities and every step
/// (values and op counts) against the reference.
fn check_run(gmm: &GaussianMixture, level: AccuracyLevel, steps: usize) {
    let mut ctx = QcsContext::with_profile(profile());
    ctx.set_level(level);
    let mut ref_ctx = ctx.clone();
    let mut state = gmm.initial_state();
    for i in 0..steps {
        let what = format!("{level:?} iterate {i}");
        assert_quantities_match(gmm, &state, &what);
        let next = gmm.step(&state, &mut ctx);
        let ref_next = ref_step(gmm, &state, &mut ref_ctx);
        assert_states_match(&next, &ref_next, &what);
        assert_eq!(ctx.counts(), ref_ctx.counts(), "{what}: op counts");
        let done = gmm.converged(&state, &next);
        state = next;
        if done {
            break;
        }
    }
    assert_quantities_match(gmm, &state, &format!("{level:?} final iterate"));
}

#[test]
fn exact_quantities_match_the_reference_at_every_level() {
    let gmm = GaussianMixture::from_dataset(&slow_data(), 1e-7, 500, 7);
    for level in AccuracyLevel::ALL {
        check_run(&gmm, level, 60);
    }
    // Three dimensions and a Table 2 dataset, for a few iterations.
    let gmm3 = GaussianMixture::from_dataset(&three_d_three_cluster(), 1e-6, 500, 7);
    for level in [AccuracyLevel::Level2, AccuracyLevel::Accurate] {
        check_run(&gmm3, level, 3);
    }
}

#[test]
fn singular_covariances_take_the_ridge_path_identically() {
    let gmm = GaussianMixture::from_dataset(&slow_data(), 1e-7, 500, 7);
    let mut state = gmm.initial_state();
    // Rank one (det = 0: the inverse fails) and all-zero covariances, and
    // a zero weight that hits the log floor.
    state.covariances[0] = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
    state.covariances[1] = Matrix::zeros(2, 2);
    state.weights = vec![0.5, 0.5, 0.0];
    assert_quantities_match(&gmm, &state, "singular covariance");
    let mut ctx = QcsContext::with_profile(profile());
    let mut ref_ctx = ctx.clone();
    let next = gmm.step(&state, &mut ctx);
    assert_states_match(&next, &ref_step(&gmm, &state, &mut ref_ctx), "singular");
}

fn assert_reports_match(fast: &RunReport, reference: &RunReport, what: &str) {
    assert_eq!(fast.iterations, reference.iterations, "{what}: iterations");
    assert_eq!(
        fast.level_schedule, reference.level_schedule,
        "{what}: level schedule"
    );
    assert_eq!(
        fast.approx_energy.to_bits(),
        reference.approx_energy.to_bits(),
        "{what}: approximate energy"
    );
    assert_eq!(
        fast.total_energy.to_bits(),
        reference.total_energy.to_bits(),
        "{what}: total energy"
    );
    assert_eq!(
        fast.final_objective.to_bits(),
        reference.final_objective.to_bits(),
        "{what}: final objective"
    );
    assert_eq!(fast, reference, "{what}: report");
}

#[test]
fn controller_runs_match_the_reference_under_both_strategies() {
    let gmm = GaussianMixture::from_dataset(&slow_data(), 1e-7, 500, 7);
    let reference = Reference(&gmm);
    let table = characterize(&gmm, &profile(), 5);
    assert_eq!(table, characterize(&reference, &profile(), 5));
    let mut rollbacks = 0;
    for update_period in [1, 5] {
        let run = |m: &dyn Fn(&mut AdaptiveAngleStrategy, &mut QcsContext) -> RunReport| {
            let mut ctx = QcsContext::with_profile(profile());
            m(
                &mut AdaptiveAngleStrategy::from_characterization(&table, update_period),
                &mut ctx,
            )
        };
        let fast = run(&|s, ctx| RunConfig::new(&gmm, ctx).execute(s).report);
        let slow = run(&|s, ctx| RunConfig::new(&reference, ctx).execute(s).report);
        assert_reports_match(&fast, &slow, &format!("adaptive f={update_period}"));
        rollbacks += fast.rollbacks;
    }
    let mut ctx = QcsContext::with_profile(profile());
    let fast = RunConfig::new(&gmm, &mut ctx)
        .execute(&mut IncrementalStrategy::from_characterization(&table))
        .report;
    let slow = RunConfig::new(&reference, &mut ctx)
        .execute(&mut IncrementalStrategy::from_characterization(&table))
        .report;
    assert_reports_match(&fast, &slow, "incremental");
    assert!(
        fast.level_schedule.windows(2).any(|w| w[0] != w[1]),
        "no switch"
    );
    assert!(rollbacks > 0, "the adaptive runs took no rollback");
}
