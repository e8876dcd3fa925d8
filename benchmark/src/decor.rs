//! Timing decorators over the layers' public traits.
//!
//! Each decorator forwards every call to the wrapped value unchanged and
//! opens a span around it, so a traced run computes the same bits as an
//! untraced one (`ScalarPath` in `approx-arith` is the in-tree precedent
//! for such a wrapper). The traced run uses these types; the untraced
//! run never does.

use approx_arith::{AccuracyLevel, ArithContext, OpCounts, QFormat, RangeConfig};
use approx_linalg::LinearOperator;
use approxit::{Decision, IterationObservation, ReconfigStrategy};
use iter_solvers::IterativeMethod;

use crate::trace::{self, Guard};

/// Bytes an `spmv_slice` call reads and writes, counted from its
/// arguments (not measured): every stored value, column index and the
/// gathered `x` entry, plus one row pointer and one output per row.
pub fn spmv_bytes(nnz: usize, rows: usize) -> u64 {
    let word = std::mem::size_of::<f64>() as u64;
    let index = std::mem::size_of::<usize>() as u64;
    nnz as u64 * (2 * word + index) + rows as u64 * (index + word)
}

/// [`ArithContext`] decorator: spans every slice kernel, counts the
/// scalar operations it forwards, and (for service attempts) holds the
/// attempt span open until the context drops.
///
/// It overrides **every** slice kernel. A kernel it missed would run the
/// trait's scalar-loop default through this wrapper's `add`/`mul`: the
/// same bits, far slower, and with the kernel's time booked as scalar
/// operations. `forwarding_guard` in the tests catches that.
pub struct TracedCtx<C> {
    inner: C,
    scalar_ops: u64,
    _attempt: Option<Guard>,
}

impl<C: ArithContext> TracedCtx<C> {
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            scalar_ops: 0,
            _attempt: None,
        }
    }

    /// A context whose lifetime is one service attempt span.
    pub fn for_attempt(inner: C, attempt: Guard) -> Self {
        Self {
            inner,
            scalar_ops: 0,
            _attempt: Some(attempt),
        }
    }

    /// Scalar `add`/`mul`/`div`/`sub` calls forwarded so far.
    #[cfg(test)]
    pub fn scalar_ops(&self) -> u64 {
        self.scalar_ops
    }
}

impl<C> Drop for TracedCtx<C> {
    fn drop(&mut self) {
        trace::count("kernel.scalar_ops", self.scalar_ops);
    }
}

impl<C: ArithContext> ArithContext for TracedCtx<C> {
    fn add(&mut self, a: f64, b: f64) -> f64 {
        self.scalar_ops += 1;
        self.inner.add(a, b)
    }

    fn mul(&mut self, a: f64, b: f64) -> f64 {
        self.scalar_ops += 1;
        self.inner.mul(a, b)
    }

    fn div(&mut self, a: f64, b: f64) -> f64 {
        self.scalar_ops += 1;
        self.inner.div(a, b)
    }

    fn sub(&mut self, a: f64, b: f64) -> f64 {
        self.scalar_ops += 1;
        self.inner.sub(a, b)
    }

    fn level(&self) -> AccuracyLevel {
        self.inner.level()
    }

    fn set_level(&mut self, level: AccuracyLevel) {
        self.inner.set_level(level);
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }

    fn approx_energy(&self) -> f64 {
        self.inner.approx_energy()
    }

    fn total_energy(&self) -> f64 {
        self.inner.total_energy()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    fn datapath_format(&self) -> Option<QFormat> {
        self.inner.datapath_format()
    }

    fn range_config(&self) -> Option<RangeConfig> {
        self.inner.range_config()
    }

    fn add_slice(&mut self, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        let _s = trace::span("kernel.elementwise");
        trace::count("kernel.elementwise_elems", out.len() as u64);
        self.inner.add_slice(xs, ys, out);
    }

    fn sub_slice(&mut self, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        let _s = trace::span("kernel.elementwise");
        trace::count("kernel.elementwise_elems", out.len() as u64);
        self.inner.sub_slice(xs, ys, out);
    }

    fn scale_slice(&mut self, alpha: f64, xs: &[f64], out: &mut [f64]) {
        let _s = trace::span("kernel.elementwise");
        trace::count("kernel.elementwise_elems", out.len() as u64);
        self.inner.scale_slice(alpha, xs, out);
    }

    fn axpy_slice(&mut self, alpha: f64, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        let _s = trace::span("kernel.elementwise");
        trace::count("kernel.elementwise_elems", out.len() as u64);
        self.inner.axpy_slice(alpha, xs, ys, out);
    }

    fn add_assign_slice(&mut self, ys: &mut [f64], xs: &[f64]) {
        let _s = trace::span("kernel.elementwise");
        trace::count("kernel.elementwise_elems", ys.len() as u64);
        self.inner.add_assign_slice(ys, xs);
    }

    fn axpy_assign_slice(&mut self, ys: &mut [f64], alpha: f64, xs: &[f64]) {
        let _s = trace::span("kernel.elementwise");
        trace::count("kernel.elementwise_elems", ys.len() as u64);
        self.inner.axpy_assign_slice(ys, alpha, xs);
    }

    fn dot_slice(&mut self, xs: &[f64], ys: &[f64]) -> f64 {
        let _s = trace::span("kernel.reduce");
        trace::count("kernel.reduce_elems", xs.len() as u64);
        self.inner.dot_slice(xs, ys)
    }

    fn sum_slice(&mut self, xs: &[f64]) -> f64 {
        let _s = trace::span("kernel.reduce");
        trace::count("kernel.reduce_elems", xs.len() as u64);
        self.inner.sum_slice(xs)
    }

    fn matvec_slice(&mut self, rows: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
        let _s = trace::span("kernel.matvec");
        trace::count("kernel.matvec_macs", rows.len() as u64);
        self.inner.matvec_slice(rows, cols, x, out);
    }

    fn spmv_slice(
        &mut self,
        values: &[f64],
        col_idx: &[usize],
        row_ptr: &[usize],
        x: &[f64],
        out: &mut [f64],
    ) {
        let _s = trace::span("kernel.spmv");
        trace::count("kernel.spmv_nnz", values.len() as u64);
        trace::count(
            "kernel.spmv_bytes_computed",
            spmv_bytes(values.len(), out.len()),
        );
        self.inner.spmv_slice(values, col_idx, row_ptr, x, out);
    }

    // `sum` and `dot` keep their defaults, which delegate to the traced
    // `sum_slice`/`dot_slice` above.
}

/// [`IterativeMethod`] decorator: `step` is one span, the exact
/// monitoring calls (objective, gradient, params, converged) another.
#[derive(Debug, Clone)]
pub struct TracedMethod<M>(pub M);

impl<M: IterativeMethod> IterativeMethod for TracedMethod<M> {
    type State = M::State;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn initial_state(&self) -> Self::State {
        self.0.initial_state()
    }

    fn step(&self, state: &Self::State, ctx: &mut dyn ArithContext) -> Self::State {
        let _s = trace::span("method.step");
        self.0.step(state, ctx)
    }

    fn objective(&self, state: &Self::State) -> f64 {
        let _s = trace::span("method.monitor");
        self.0.objective(state)
    }

    fn gradient(&self, state: &Self::State) -> Option<Vec<f64>> {
        let _s = trace::span("method.monitor");
        self.0.gradient(state)
    }

    fn params(&self, state: &Self::State) -> Vec<f64> {
        let _s = trace::span("method.monitor");
        self.0.params(state)
    }

    fn converged(&self, prev: &Self::State, next: &Self::State) -> bool {
        let _s = trace::span("method.monitor");
        self.0.converged(prev, next)
    }

    fn max_iterations(&self) -> usize {
        self.0.max_iterations()
    }

    fn deadline_hint(&self) -> Option<usize> {
        self.0.deadline_hint()
    }
}

/// [`ReconfigStrategy`] decorator: spans `decide` and `convergence_veto`
/// and counts level switches and rollbacks among the decisions.
pub struct TracedStrategy<S>(pub S);

fn count_decision(observation: &IterationObservation<'_>, decision: Decision) {
    match decision {
        Decision::Keep => {}
        Decision::SwitchTo(level) if level == observation.level => {}
        Decision::SwitchTo(_) => trace::count("strategy.switches", 1),
        Decision::RollbackAndSwitch(_) => trace::count("strategy.rollbacks", 1),
    }
}

impl<S: ReconfigStrategy + ?Sized> ReconfigStrategy for TracedStrategy<Box<S>> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn initial_level(&self) -> AccuracyLevel {
        self.0.initial_level()
    }

    fn decide(&mut self, observation: &IterationObservation<'_>) -> Decision {
        let _s = trace::span("strategy.decide");
        let decision = self.0.decide(observation);
        count_decision(observation, decision);
        decision
    }

    fn convergence_veto(&mut self, observation: &IterationObservation<'_>) -> Option<Decision> {
        let _s = trace::span("strategy.decide");
        let veto = self.0.convergence_veto(observation);
        if let Some(decision) = veto {
            count_decision(observation, decision);
        }
        veto
    }
}

/// [`LinearOperator`] decorator: spans `apply` and `apply_exact`.
#[derive(Debug, Clone)]
pub struct TracedOp<A>(pub A);

impl<A: LinearOperator> LinearOperator for TracedOp<A> {
    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn cols(&self) -> usize {
        self.0.cols()
    }

    fn apply(&self, ctx: &mut dyn ArithContext, x: &[f64], out: &mut [f64]) {
        let _s = trace::span("operator.apply");
        self.0.apply(ctx, x, out);
    }

    fn apply_exact(&self, x: &[f64], out: &mut [f64]) {
        let _s = trace::span("operator.apply_exact");
        self.0.apply_exact(x, out);
    }

    fn diagonal(&self) -> Vec<f64> {
        self.0.diagonal()
    }

    fn max_abs_entry(&self) -> f64 {
        self.0.max_abs_entry()
    }

    fn max_row_terms(&self) -> usize {
        self.0.max_row_terms()
    }

    fn off_diagonal_abs_row_sums(&self) -> Vec<f64> {
        self.0.off_diagonal_abs_row_sums()
    }

    fn is_symmetric(&self, tol: f64) -> bool {
        self.0.is_symmetric(tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::{EnergyProfile, QcsContext};

    fn ctx() -> QcsContext {
        QcsContext::with_profile(EnergyProfile::from_constants(
            [1.0, 2.0, 3.0, 4.0, 5.0],
            50.0,
            100.0,
        ))
    }

    /// One call of each slice kernel through the decorator forwards no
    /// scalar operation: every kernel reaches the wrapped context's own
    /// implementation instead of the trait's scalar-loop default.
    #[test]
    fn forwarding_guard() {
        let mut traced = TracedCtx::new(ctx());
        let (x, y) = ([1.5, -2.25, 3.0], [0.5, 0.75, -1.0]);
        let mut out = [0.0; 3];
        let mut acc = [0.25, 0.5, 0.75];
        traced.add_slice(&x, &y, &mut out);
        traced.sub_slice(&x, &y, &mut out);
        traced.scale_slice(0.5, &x, &mut out);
        traced.axpy_slice(0.5, &x, &y, &mut out);
        traced.add_assign_slice(&mut acc, &x);
        traced.axpy_assign_slice(&mut acc, 0.5, &x);
        traced.dot_slice(&x, &y);
        traced.sum_slice(&x);
        traced.matvec_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, &x, &mut out[..2]);
        traced.spmv_slice(&[1.0, 2.0, 3.0], &[0, 2, 1], &[0, 2, 3], &x, &mut out[..2]);
        traced.sum(&x);
        traced.dot(&x, &y);
        assert_eq!(
            traced.scalar_ops(),
            0,
            "a slice kernel fell back to scalar ops"
        );
        assert!(
            traced.counts().total() > 0,
            "kernels did reach the inner context"
        );
    }

    /// The decorator is transparent: the same kernels give the same bits,
    /// counts and energy as the bare context.
    #[test]
    fn decorated_context_is_bit_identical() {
        let mut bare = ctx();
        let mut traced = TracedCtx::new(ctx());
        for level in AccuracyLevel::ALL {
            bare.set_level(level);
            traced.set_level(level);
            let x: Vec<f64> = (0..37).map(|i| f64::from(i) * 0.37 - 5.0).collect();
            let y: Vec<f64> = (0..37).map(|i| 3.0 - f64::from(i) * 0.11).collect();
            let (mut a, mut b) = (vec![0.0; 37], vec![0.0; 37]);
            bare.axpy_slice(0.3, &x, &y, &mut a);
            traced.axpy_slice(0.3, &x, &y, &mut b);
            assert_eq!(
                bare.dot_slice(&a, &x).to_bits(),
                traced.dot_slice(&b, &x).to_bits()
            );
        }
        assert_eq!(bare.counts(), traced.counts());
        assert_eq!(
            bare.approx_energy().to_bits(),
            traced.approx_energy().to_bits()
        );
    }

    #[test]
    fn spmv_bytes_counts_arguments() {
        assert_eq!(spmv_bytes(0, 0), 0);
        assert_eq!(spmv_bytes(5, 1), 5 * 24 + 16);
    }
}
