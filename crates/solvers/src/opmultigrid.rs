//! Algebraic multigrid V-cycles over [`LinearOperator`] hierarchies.
//!
//! Every ingredient of the V-cycle — the per-level system, the
//! restriction and the prolongation — is itself a [`LinearOperator`],
//! so the cycle is nothing but matvecs, damped-Jacobi smoothing via the
//! [`diagonal`](LinearOperator::diagonal) probe, and slice-kernel
//! vector updates. A Poisson constructor builds the classical
//! full-weighting/bilinear hierarchy out of [`CsrMatrix`] operators.

use approx_arith::ArithContext;
use approx_linalg::{vector, CsrMatrix, LinearOperator};

use crate::datasets::PoissonSource;
use crate::method::IterativeMethod;

/// One level of a multigrid hierarchy: the system operator plus the
/// transfers to and from the next coarser level (`None` on the
/// coarsest).
#[derive(Debug, Clone)]
pub struct MgLevel<A> {
    /// The system operator `A_l` at this level.
    pub a: A,
    /// Restriction `R_l` mapping this level's residual to the next
    /// coarser level's right-hand side.
    pub restrict: Option<A>,
    /// Prolongation `P_l` mapping the next coarser level's correction
    /// back to this level.
    pub prolong: Option<A>,
}

/// Multigrid V-cycle iteration on `A x = b` over an arbitrary
/// [`LinearOperator`] hierarchy, as an [`IterativeMethod`].
///
/// Smoothing is damped Jacobi (`x ← x + ω·D⁻¹(b − Ax)`); the coarsest
/// level is solved directly when it is 1×1 and by extra smoothing
/// sweeps otherwise. All matvecs — system *and* transfers — run on the
/// arithmetic context, so the whole cycle is metered and degradable
/// exactly like any other solver.
///
/// # Example
///
/// ```
/// use approx_arith::ExactContext;
/// use iter_solvers::datasets::PoissonSource;
/// use iter_solvers::{IterativeMethod, OperatorMultigrid};
///
/// let mg = OperatorMultigrid::poisson(15, PoissonSource::Sine { amplitude: 8.0 }, 2, 1e-7, 50);
/// let mut ctx = ExactContext::new();
/// let mut u = mg.initial_state();
/// for _ in 0..12 {
///     u = mg.step(&u, &mut ctx); // each step is one V-cycle
/// }
/// let center = u[(15 * 15) / 2];
/// assert!((center - 8.0).abs() < 0.5, "center {center}");
/// ```
#[derive(Debug, Clone)]
pub struct OperatorMultigrid<A = CsrMatrix> {
    levels: Vec<MgLevel<A>>,
    /// Per-level diagonals, captured exactly at construction.
    diags: Vec<Vec<f64>>,
    b: Vec<f64>,
    smoothing_sweeps: usize,
    omega: f64,
    tolerance: f64,
    max_iterations: usize,
}

impl<A: LinearOperator> OperatorMultigrid<A> {
    /// Create a V-cycle solver from an explicit hierarchy (level 0 is
    /// the finest) and the fine-level right-hand side.
    ///
    /// # Panics
    /// Panics if the hierarchy is empty, a transfer is missing or has
    /// mismatched dimensions, a diagonal entry is zero, `b` does not
    /// match the fine level, `smoothing_sweeps` is 0, `omega` is
    /// outside `(0, 1]`, the tolerance is not positive, or
    /// `max_iterations` is 0.
    #[must_use]
    pub fn new(
        levels: Vec<MgLevel<A>>,
        b: Vec<f64>,
        smoothing_sweeps: usize,
        omega: f64,
        tolerance: f64,
        max_iterations: usize,
    ) -> Self {
        assert!(!levels.is_empty(), "hierarchy needs at least one level");
        assert_eq!(
            levels[0].a.order(),
            b.len(),
            "A and b dimensions must agree"
        );
        assert!(smoothing_sweeps > 0, "at least one smoothing sweep");
        assert!(
            omega > 0.0 && omega <= 1.0,
            "damping must be in (0, 1] (got {omega})"
        );
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "iteration budget must be positive");
        for (l, pair) in levels.windows(2).enumerate() {
            let (fine, coarse) = (&pair[0], &pair[1]);
            let r = fine
                .restrict
                .as_ref()
                .unwrap_or_else(|| panic!("level {l} needs a restriction"));
            let p = fine
                .prolong
                .as_ref()
                .unwrap_or_else(|| panic!("level {l} needs a prolongation"));
            assert_eq!(r.rows(), coarse.a.order(), "restriction rows at level {l}");
            assert_eq!(r.cols(), fine.a.order(), "restriction cols at level {l}");
            assert_eq!(p.rows(), fine.a.order(), "prolongation rows at level {l}");
            assert_eq!(p.cols(), coarse.a.order(), "prolongation cols at level {l}");
        }
        let diags: Vec<Vec<f64>> = levels.iter().map(|l| l.a.diagonal()).collect();
        assert!(
            diags.iter().flatten().all(|&d| d != 0.0),
            "smoothing needs zero-free diagonals"
        );
        Self {
            levels,
            diags,
            b,
            smoothing_sweeps,
            omega,
            tolerance,
            max_iterations,
        }
    }

    /// Number of levels in the hierarchy.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The fine-level operator.
    #[must_use]
    pub fn operator(&self) -> &A {
        &self.levels[0].a
    }

    /// The fine-level right-hand side.
    #[must_use]
    pub fn rhs(&self) -> &[f64] {
        &self.b
    }

    /// Exact fine-level residual `b − Ax` (monitoring).
    #[must_use]
    pub fn exact_residual(&self, x: &[f64]) -> Vec<f64> {
        self.levels[0]
            .a
            .matvec_exact(x)
            .iter()
            .zip(&self.b)
            .map(|(&axi, &bi)| bi - axi)
            .collect()
    }

    /// One damped-Jacobi sweep of level `l`.
    fn smooth(&self, l: usize, x: &mut [f64], b: &[f64], ctx: &mut dyn ArithContext) {
        let n = x.len();
        let mut ax = vec![0.0; n];
        self.levels[l].a.apply(ctx, x, &mut ax);
        let mut r = vec![0.0; n];
        ctx.sub_slice(b, &ax, &mut r);
        let mut step = vec![0.0; n];
        for ((s, &ri), &di) in step.iter_mut().zip(&r).zip(&self.diags[l]) {
            *s = ctx.div(ri, di);
        }
        ctx.axpy_assign_slice(x, self.omega, &step);
    }

    /// Recursive V-cycle on level `l`.
    fn v_cycle(&self, l: usize, x: &mut [f64], b: &[f64], ctx: &mut dyn ArithContext) {
        let n = self.levels[l].a.order();
        if l + 1 == self.levels.len() {
            if n == 1 {
                // Exact solve of the 1×1 system.
                x[0] = ctx.div(b[0], self.diags[l][0]);
            } else {
                for _ in 0..4 * self.smoothing_sweeps {
                    self.smooth(l, x, b, ctx);
                }
            }
            return;
        }
        for _ in 0..self.smoothing_sweeps {
            self.smooth(l, x, b, ctx);
        }
        let mut ax = vec![0.0; n];
        self.levels[l].a.apply(ctx, x, &mut ax);
        let mut r = vec![0.0; n];
        ctx.sub_slice(b, &ax, &mut r);
        let rc = self.levels[l]
            .restrict
            .as_ref()
            .expect("validated at construction")
            .matvec(ctx, &r);
        let mut e = vec![0.0; rc.len()];
        self.v_cycle(l + 1, &mut e, &rc, ctx);
        let correction = self.levels[l]
            .prolong
            .as_ref()
            .expect("validated at construction")
            .matvec(ctx, &e);
        ctx.add_assign_slice(x, &correction);
        for _ in 0..self.smoothing_sweeps {
            self.smooth(l, x, b, ctx);
        }
    }
}

impl OperatorMultigrid<CsrMatrix> {
    /// Build the classical Poisson hierarchy on an `n × n` interior
    /// grid (homogeneous Dirichlet): unscaled 5-point stencils at every
    /// level ([`CsrMatrix::poisson5`]), full-weighting restriction with
    /// the inter-level factor 4 folded into its weights, bilinear
    /// prolongation, and `b` from [`PoissonSource::rhs`].
    ///
    /// # Panics
    /// Panics if `n + 1` is not a power of two (the hierarchy must
    /// coarsen down to a single point) or any of the scalar parameters
    /// is out of range (see [`OperatorMultigrid::new`]).
    #[must_use]
    pub fn poisson(
        n: usize,
        source: PoissonSource,
        smoothing_sweeps: usize,
        tolerance: f64,
        max_iterations: usize,
    ) -> Self {
        assert!(
            (n + 1).is_power_of_two() && n >= 1,
            "grid size must be 2^k - 1 (got {n})"
        );
        let b = source.rhs(n);

        let mut levels = Vec::new();
        let mut size = n;
        loop {
            let a = CsrMatrix::poisson5(size, size);
            if size == 1 {
                levels.push(MgLevel {
                    a,
                    restrict: None,
                    prolong: None,
                });
                break;
            }
            levels.push(MgLevel {
                a,
                restrict: Some(full_weighting(size)),
                prolong: Some(bilinear_prolongation(size)),
            });
            size = (size - 1) / 2;
        }
        Self::new(levels, b, smoothing_sweeps, 0.8, tolerance, max_iterations)
    }
}

/// Full-weighting restriction from an `n × n` interior grid to its
/// `(n−1)/2` coarsening, with the factor 4 relating the unscaled fine
/// and coarse stencils folded in: net stencil `¼·[1 2 1; 2 4 2; 1 2 1]`
/// (all weights exact binary fractions).
fn full_weighting(n: usize) -> CsrMatrix {
    let nc = (n - 1) / 2;
    let mut triplets = Vec::with_capacity(9 * nc * nc);
    for ci in 0..nc {
        for cj in 0..nc {
            let row = ci * nc + cj;
            let (fi, fj) = ((2 * ci + 1) as isize, (2 * cj + 1) as isize);
            for (di, dj, w) in [
                (0, 0, 1.0),
                (-1, 0, 0.5),
                (1, 0, 0.5),
                (0, -1, 0.5),
                (0, 1, 0.5),
                (-1, -1, 0.25),
                (-1, 1, 0.25),
                (1, -1, 0.25),
                (1, 1, 0.25),
            ] {
                let (i, j) = (fi + di, fj + dj);
                if i >= 0 && j >= 0 && i < n as isize && j < n as isize {
                    triplets.push((row, (i * n as isize + j) as usize, w));
                }
            }
        }
    }
    CsrMatrix::from_triplets(nc * nc, n * n, &triplets)
}

/// Bilinear prolongation from the `(n−1)/2` interior grid back to `n`:
/// coincident nodes copy, edge midpoints average two coarse neighbours,
/// cell centers average four (weights 1, ½, ¼ — exact binary).
fn bilinear_prolongation(n: usize) -> CsrMatrix {
    let nc = (n - 1) / 2;
    let mut triplets = Vec::with_capacity(4 * n * n);
    let push =
        |triplets: &mut Vec<(usize, usize, f64)>, row: usize, ci: isize, cj: isize, w: f64| {
            if ci >= 0 && cj >= 0 && ci < nc as isize && cj < nc as isize {
                triplets.push((row, (ci * nc as isize + cj) as usize, w));
            }
        };
    for fi in 0..n as isize {
        for fj in 0..n as isize {
            let row = (fi * n as isize + fj) as usize;
            match (fi % 2 == 1, fj % 2 == 1) {
                (true, true) => push(&mut triplets, row, (fi - 1) / 2, (fj - 1) / 2, 1.0),
                (true, false) => {
                    let ci = (fi - 1) / 2;
                    push(&mut triplets, row, ci, fj / 2 - 1, 0.5);
                    push(&mut triplets, row, ci, fj / 2, 0.5);
                }
                (false, true) => {
                    let cj = (fj - 1) / 2;
                    push(&mut triplets, row, fi / 2 - 1, cj, 0.5);
                    push(&mut triplets, row, fi / 2, cj, 0.5);
                }
                (false, false) => {
                    push(&mut triplets, row, fi / 2 - 1, fj / 2 - 1, 0.25);
                    push(&mut triplets, row, fi / 2, fj / 2 - 1, 0.25);
                    push(&mut triplets, row, fi / 2 - 1, fj / 2, 0.25);
                    push(&mut triplets, row, fi / 2, fj / 2, 0.25);
                }
            }
        }
    }
    CsrMatrix::from_triplets(n * n, nc * nc, &triplets)
}

impl<A: LinearOperator> IterativeMethod for OperatorMultigrid<A> {
    type State = Vec<f64>;

    fn name(&self) -> &str {
        "operator-multigrid"
    }

    fn initial_state(&self) -> Vec<f64> {
        vec![0.0; self.b.len()]
    }

    /// One V-cycle.
    fn step(&self, u: &Vec<f64>, ctx: &mut dyn ArithContext) -> Vec<f64> {
        let mut next = u.clone();
        self.v_cycle(0, &mut next, &self.b, ctx);
        next
    }

    /// Exact fine-level residual 2-norm `‖b − Ax‖₂`.
    fn objective(&self, u: &Vec<f64>) -> f64 {
        vector::norm2_exact(&self.exact_residual(u))
    }

    fn gradient(&self, u: &Vec<f64>) -> Option<Vec<f64>> {
        Some(self.exact_residual(u).iter().map(|r| -r).collect())
    }

    fn params(&self, u: &Vec<f64>) -> Vec<f64> {
        u.clone()
    }

    fn converged(&self, prev: &Vec<f64>, next: &Vec<f64>) -> bool {
        prev.iter()
            .zip(next)
            .all(|(&a, &b)| (a - b).abs() < self.tolerance)
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::sine_solution;
    use crate::Jacobi;
    use approx_arith::{EnergyProfile, ExactContext};

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// Iterations until `m` converges under exact arithmetic.
    fn iterations_to_converge(m: &impl IterativeMethod<State = Vec<f64>>) -> usize {
        let mut ctx = ExactContext::with_profile(profile());
        let mut state = m.initial_state();
        for i in 0..m.max_iterations() {
            let next = m.step(&state, &mut ctx);
            let done = m.converged(&state, &next);
            state = next;
            if done {
                return i + 1;
            }
        }
        m.max_iterations()
    }

    #[test]
    fn v_cycles_converge_to_the_analytic_solution() {
        let mg =
            OperatorMultigrid::poisson(15, PoissonSource::Sine { amplitude: 8.0 }, 2, 1e-8, 60);
        assert_eq!(mg.depth(), 4); // 15 → 7 → 3 → 1
        let mut ctx = ExactContext::with_profile(profile());
        let mut u = mg.initial_state();
        for _ in 0..25 {
            u = mg.step(&u, &mut ctx);
        }
        let err = max_abs_diff(&u, &sine_solution(15, 8.0));
        assert!(err < 0.15, "max error {err}");
    }

    #[test]
    fn multigrid_needs_far_fewer_iterations_than_jacobi() {
        let source = PoissonSource::Sine { amplitude: 8.0 };
        let mg = OperatorMultigrid::poisson(15, source, 2, 1e-7, 500);
        let jacobi = Jacobi::new(CsrMatrix::poisson5(15, 15), source.rhs(15), 0.9, 1e-7, 5000);
        let mg_iters = iterations_to_converge(&mg);
        let jacobi_iters = iterations_to_converge(&jacobi);
        assert!(
            mg_iters * 5 < jacobi_iters,
            "multigrid {mg_iters} vs jacobi {jacobi_iters}"
        );
    }

    #[test]
    fn restriction_and_prolongation_round_trip_smooth_fields() {
        // Restricting then prolongating a smooth field must stay close
        // to the original (the pair is an approximate identity on the
        // low-frequency subspace, once the folded-in factor 4 of the
        // restriction is divided back out).
        let n = 15;
        let smooth = sine_solution(n, 1.0);
        let coarse = full_weighting(n).matvec_exact(&smooth);
        let back = bilinear_prolongation(n).matvec_exact(&coarse);
        let quarter: Vec<f64> = back.iter().map(|v| v / 4.0).collect();
        let err = max_abs_diff(&smooth, &quarter);
        assert!(err < 0.25, "round-trip error {err}");
    }

    #[test]
    fn residual_contracts_per_cycle() {
        let mg = OperatorMultigrid::poisson(
            15,
            PoissonSource::Point {
                x: 0.5,
                y: 0.5,
                strength: 4.0,
            },
            2,
            1e-10,
            40,
        );
        let mut ctx = ExactContext::with_profile(profile());
        let mut u = mg.initial_state();
        let mut prev = mg.objective(&u);
        for _ in 0..6 {
            u = mg.step(&u, &mut ctx);
            let cur = mg.objective(&u);
            assert!(cur < 0.5 * prev, "residual {cur} vs previous {prev}");
            prev = cur;
        }
    }

    #[test]
    fn transfer_shapes_chain_through_the_hierarchy() {
        let mg = OperatorMultigrid::poisson(7, PoissonSource::Sine { amplitude: 1.0 }, 1, 1e-6, 10);
        assert_eq!(mg.depth(), 3);
        assert_eq!(mg.operator().order(), 49);
    }

    #[test]
    #[should_panic(expected = "grid size must be")]
    fn non_power_of_two_grid_panics() {
        let _ = OperatorMultigrid::poisson(10, PoissonSource::Sine { amplitude: 1.0 }, 1, 1e-6, 10);
    }

    #[test]
    #[should_panic(expected = "needs a restriction")]
    fn missing_transfer_panics() {
        let fine = MgLevel {
            a: CsrMatrix::poisson5(3, 3),
            restrict: None,
            prolong: None,
        };
        let coarse = MgLevel {
            a: CsrMatrix::poisson5(1, 1),
            restrict: None,
            prolong: None,
        };
        let _ = OperatorMultigrid::new(vec![fine, coarse], vec![0.1; 9], 1, 0.8, 1e-6, 10);
    }
}
