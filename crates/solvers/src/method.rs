//! The iterative-method abstraction the ApproxIt framework drives.

use approx_arith::ArithContext;

/// An iterative method in the paper's sense (§2.1): a computation that
/// repeatedly refines a state, `x^{k+1} = x^k + α^k d^k`, until a
/// convergence criterion is met.
///
/// The split of responsibilities mirrors the paper's offline resilience
/// partitioning:
///
/// * [`step`](IterativeMethod::step) runs the error-*resilient* datapath
///   through the supplied [`ArithContext`] — this is what dynamic effort
///   scaling degrades and meters;
/// * [`objective`](IterativeMethod::objective),
///   [`gradient`](IterativeMethod::gradient),
///   [`params`](IterativeMethod::params) and
///   [`converged`](IterativeMethod::converged) are error-*sensitive*
///   monitoring quantities computed exactly. The paper notes (§4.1) that
///   all of them are available "along with conducting IMs". They are not
///   free in wall-clock time: in traced `paper-tables` benchmark passes
///   (one thread, 2-vCPU machine) they take 22–25% of a pass, and took
///   39–41% before GMM's exact quantities shared one allocation-free
///   E-pass. The strategies' decisions on top of them stay under 0.1%.
pub trait IterativeMethod {
    /// The iterate (solution state) type.
    type State: Clone;

    /// Human-readable method name (e.g. `"gmm-em"`).
    fn name(&self) -> &str;

    /// The initial iterate `x⁰`. Must be deterministic so that every
    /// configuration of an experiment starts from the same point, as the
    /// paper's setup requires.
    fn initial_state(&self) -> Self::State;

    /// Perform one iteration on the given arithmetic fabric.
    fn step(&self, state: &Self::State, ctx: &mut dyn ArithContext) -> Self::State;

    /// The exact objective value `f(x)` of a state (lower is better).
    fn objective(&self, state: &Self::State) -> f64;

    /// The exact gradient `∇f(x)` with respect to [`params`], if the
    /// method can provide one (used by the gradient scheme; methods
    /// without a gradient fall back to objective-difference checks).
    ///
    /// [`params`]: IterativeMethod::params
    fn gradient(&self, state: &Self::State) -> Option<Vec<f64>> {
        let _ = state;
        None
    }

    /// The state flattened into a parameter vector `x ∈ ℝⁿ` (used for
    /// the ‖xᵏ‖ and ‖xᵏ−xᵏ⁻¹‖ quantities of the reconfiguration
    /// criteria).
    fn params(&self, state: &Self::State) -> Vec<f64>;

    /// Exact convergence test between consecutive iterates.
    fn converged(&self, prev: &Self::State, next: &Self::State) -> bool;

    /// The iteration budget (the paper's `MAX_ITER`).
    fn max_iterations(&self) -> usize;

    /// A method-specific *deadline hint*: the iteration count within
    /// which a healthy run should converge, for deadline-aware callers
    /// (the solver service uses it as the per-attempt iteration budget
    /// when the request carries no explicit deadline). Unlike
    /// [`max_iterations`](Self::max_iterations) — the hard safety cap —
    /// this encodes the method's *expected* convergence horizon, e.g.
    /// conjugate gradient's finite-termination bound. `None` (the
    /// default) means the method offers no tighter bound than
    /// `MAX_ITER`.
    fn deadline_hint(&self) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::{ArithContext, EnergyProfile, ExactContext};

    /// A toy contraction: x ← x/2, converging to 0.
    struct Halver;

    impl IterativeMethod for Halver {
        type State = f64;

        fn name(&self) -> &str {
            "halver"
        }

        fn initial_state(&self) -> f64 {
            1.0
        }

        fn step(&self, state: &f64, ctx: &mut dyn ArithContext) -> f64 {
            ctx.mul(*state, 0.5)
        }

        fn objective(&self, state: &f64) -> f64 {
            state.abs()
        }

        fn params(&self, state: &f64) -> Vec<f64> {
            vec![*state]
        }

        fn converged(&self, prev: &f64, next: &f64) -> bool {
            (prev - next).abs() < 1e-9
        }

        fn max_iterations(&self) -> usize {
            100
        }
    }

    #[test]
    fn trait_is_usable_generically() {
        fn run<M: IterativeMethod>(m: &M, ctx: &mut dyn ArithContext) -> (M::State, usize) {
            let mut state = m.initial_state();
            for i in 0..m.max_iterations() {
                let next = m.step(&state, ctx);
                let done = m.converged(&state, &next);
                state = next;
                if done {
                    return (state, i + 1);
                }
            }
            (state, m.max_iterations())
        }
        let mut ctx = ExactContext::with_profile(EnergyProfile::from_constants(
            [1.0, 2.0, 3.0, 4.0, 5.0],
            50.0,
            100.0,
        ));
        let (x, iters) = run(&Halver, &mut ctx);
        assert!(x < 1e-8);
        assert!(iters < 100);
        assert!(Halver.gradient(&x).is_none());
    }
}
