//! Property tests for the batched slice kernels.
//!
//! The contract of [`ArithContext`]'s slice kernels is that an override
//! is an *optimization*, never a semantic change: for every fixed-point
//! format, low-part policy, accuracy level and input slice, the batched
//! kernel must produce bit-identical values, identical [`OpCounts`] and
//! bit-identical metered energy to the scalar-loop trait defaults.
//!
//! [`ScalarPath`] wraps a context and deliberately does **not** forward
//! the slice kernels, so it always exercises the trait defaults — making
//! it the executable specification these tests compare against.

use approx_arith::rng::Pcg32;
use approx_arith::{
    AccuracyLevel, ArithContext, EnergyProfile, LowPartPolicy, OpCounts, QFormat, QcsAdder,
    QcsContext, ScalarPath,
};
use parx::Executor;

fn profile() -> EnergyProfile {
    EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
}

/// One hardware configuration under test.
#[derive(Clone, Copy)]
struct Config {
    format: QFormat,
    approx_bits: [u32; 4],
    policy: LowPartPolicy,
}

impl Config {
    fn label(&self) -> String {
        format!("{} {:?} {:?}", self.format, self.approx_bits, self.policy)
    }
}

/// The format sweep: narrow (32-bit), default (48-bit) and wide
/// (64-bit, where raw values exceed f64's 2⁵³ integer range and the
/// kernels must requantize between fused operations), each under both
/// low-part policies.
fn configs() -> Vec<Config> {
    let mut out = Vec::new();
    for policy in [LowPartPolicy::Zero, LowPartPolicy::Or] {
        out.push(Config {
            format: QFormat::Q15_16,
            approx_bits: [20, 15, 10, 5],
            policy,
        });
        out.push(Config {
            format: QFormat::Q31_16,
            approx_bits: [20, 15, 10, 5],
            policy,
        });
        out.push(Config {
            format: QFormat::Q31_32,
            approx_bits: [36, 24, 12, 6],
            policy,
        });
    }
    out
}

/// Two contexts with identical hardware: the real one (batched kernels)
/// and the scalar-loop reference.
///
/// The batched context carries `Executor::new()`, so `APPROXIT_THREADS`
/// selects the path the large sizes take: `=1` keeps every kernel
/// serial, more threads send them through the chunked parallel dispatch.
fn context_pair(cfg: Config, level: AccuracyLevel) -> (QcsContext, ScalarPath<QcsContext>) {
    let make = || {
        let adder = QcsAdder::with_policy(cfg.format.width(), cfg.approx_bits, cfg.policy);
        let mut ctx = QcsContext::new(adder, cfg.format, profile());
        ctx.set_level(level);
        ctx
    };
    (
        make().with_executor(Executor::new()),
        ScalarPath::new(make()),
    )
}

fn random_slice(rng: &mut Pcg32, n: usize, span: f64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            // Mix in exact zeros and sub-resolution values so the
            // kernels see degenerate inputs, not just generic ones.
            match rng.next_u32() % 16 {
                0 => 0.0,
                1 => rng.uniform(-1e-7, 1e-7),
                _ => rng.uniform(-span, span),
            }
        })
        .collect()
}

/// Value span that keeps most (not all) inputs inside the format's
/// range — saturation still occurs occasionally, which both paths must
/// handle identically.
fn span_for(format: QFormat) -> f64 {
    format.max_value() / 64.0
}

fn assert_values_match(fast: &[f64], slow: &[f64], what: &str) {
    assert_eq!(fast.len(), slow.len(), "{what}: length");
    for (i, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: element {i} differs: batched {a} vs scalar {b}"
        );
    }
}

fn assert_meters_match(fast: &QcsContext, slow: &ScalarPath<QcsContext>, what: &str) {
    let (fc, sc): (OpCounts, OpCounts) = (fast.counts(), slow.counts());
    assert_eq!(fc, sc, "{what}: op counts diverge");
    assert_eq!(
        fast.approx_energy().to_bits(),
        slow.approx_energy().to_bits(),
        "{what}: approximate energy diverges"
    );
    assert_eq!(
        fast.total_energy().to_bits(),
        slow.total_energy().to_bits(),
        "{what}: total energy diverges"
    );
}

/// Slice lengths under test: degenerate and small lengths, both sides of
/// the kernels' 256-element conversion block (255, 256, 257, 513), and
/// one length above the 4096-op parallel gate (4609), where an attached
/// multi-thread executor splits the work. Miri runs only the small ones.
#[cfg(not(miri))]
const SIZES: &[usize] = &[0, 1, 2, 3, 17, 64, 255, 256, 257, 513, 4609];
#[cfg(miri)]
const SIZES: &[usize] = &[0, 1, 2, 3, 17, 64];

/// Run `op` against both contexts for every config × level × size and
/// compare values and meters.
fn check_kernel(
    name: &str,
    op: impl FnMut(&mut dyn ArithContext, &mut Pcg32, usize, f64) -> Vec<f64>,
) {
    check_kernel_at(name, SIZES, op);
}

/// [`check_kernel`] over an explicit list of sizes.
fn check_kernel_at(
    name: &str,
    sizes: &[usize],
    mut op: impl FnMut(&mut dyn ArithContext, &mut Pcg32, usize, f64) -> Vec<f64>,
) {
    for cfg in configs() {
        for level in AccuracyLevel::ALL {
            let (mut fast, mut slow) = context_pair(cfg, level);
            for &n in sizes {
                let what = format!("{name} [{} {level:?} n={n}]", cfg.label());
                // Identical streams drive both paths.
                let seed = 0xA11C_E000 + n as u64;
                let mut rng_fast = Pcg32::seeded(seed, 1);
                let mut rng_slow = Pcg32::seeded(seed, 1);
                let span = span_for(cfg.format);
                let out_fast = op(&mut fast, &mut rng_fast, n, span);
                let out_slow = op(&mut slow, &mut rng_slow, n, span);
                assert_values_match(&out_fast, &out_slow, &what);
                assert_meters_match(&fast, &slow, &what);
            }
        }
    }
}

#[test]
fn add_slice_matches_scalar_default() {
    check_kernel("add_slice", |ctx, rng, n, span| {
        let xs = random_slice(rng, n, span);
        let ys = random_slice(rng, n, span);
        let mut out = vec![0.0; n];
        ctx.add_slice(&xs, &ys, &mut out);
        out
    });
}

#[test]
fn sub_slice_matches_scalar_default() {
    check_kernel("sub_slice", |ctx, rng, n, span| {
        let xs = random_slice(rng, n, span);
        let ys = random_slice(rng, n, span);
        let mut out = vec![0.0; n];
        ctx.sub_slice(&xs, &ys, &mut out);
        out
    });
}

#[test]
fn scale_slice_matches_scalar_default() {
    check_kernel("scale_slice", |ctx, rng, n, span| {
        let alpha = rng.uniform(-4.0, 4.0);
        let xs = random_slice(rng, n, span);
        let mut out = vec![0.0; n];
        ctx.scale_slice(alpha, &xs, &mut out);
        out
    });
}

#[test]
fn axpy_slice_matches_scalar_default() {
    check_kernel("axpy_slice", |ctx, rng, n, span| {
        let alpha = rng.uniform(-4.0, 4.0);
        let xs = random_slice(rng, n, span);
        let ys = random_slice(rng, n, span);
        let mut out = vec![0.0; n];
        ctx.axpy_slice(alpha, &xs, &ys, &mut out);
        out
    });
}

#[test]
fn add_assign_slice_matches_scalar_default() {
    check_kernel("add_assign_slice", |ctx, rng, n, span| {
        let xs = random_slice(rng, n, span);
        let mut ys = random_slice(rng, n, span);
        ctx.add_assign_slice(&mut ys, &xs);
        ys
    });
}

#[test]
fn axpy_assign_slice_matches_scalar_default() {
    check_kernel("axpy_assign_slice", |ctx, rng, n, span| {
        let alpha = rng.uniform(-4.0, 4.0);
        let xs = random_slice(rng, n, span);
        let mut ys = random_slice(rng, n, span);
        ctx.axpy_assign_slice(&mut ys, alpha, &xs);
        ys
    });
}

#[test]
fn dot_slice_matches_scalar_default() {
    check_kernel("dot_slice", |ctx, rng, n, span| {
        // Keep the running reduction inside range: a dot product sums
        // n quantized products, so shrink the operand span with n.
        let span = span / (n.max(1) as f64).sqrt();
        let xs = random_slice(rng, n, span);
        let ys = random_slice(rng, n, span);
        vec![ctx.dot_slice(&xs, &ys)]
    });
}

#[test]
fn matvec_slice_matches_scalar_default() {
    check_kernel("matvec_slice", |ctx, rng, n, span| {
        // n rows × 7 columns; span shrinks with the reduction length.
        let cols = 7;
        let span = span / (cols as f64).sqrt();
        let rows = random_slice(rng, n * cols, span);
        let x = random_slice(rng, cols, span);
        let mut out = vec![0.0; n];
        ctx.matvec_slice(&rows, cols, &x, &mut out);
        out
    });
}

/// A random CSR operator with `n` rows over `cols` columns: roughly half
/// the entries stored (including occasional explicit zeros), plus the
/// vector it multiplies. The span shrinks with the worst-case reduction
/// length.
fn random_csr(rng: &mut Pcg32, n: usize, cols: usize, span: f64) -> Csr {
    let span = span / (cols as f64).sqrt();
    let mut values = Vec::new();
    let mut col_idx = Vec::new();
    let mut row_ptr = vec![0usize];
    for _ in 0..n {
        for j in 0..cols {
            if rng.next_u32().is_multiple_of(2) {
                values.push(if rng.next_u32().is_multiple_of(16) {
                    0.0
                } else {
                    rng.uniform(-span, span)
                });
                col_idx.push(j);
            }
        }
        row_ptr.push(values.len());
    }
    let x = random_slice(rng, cols, span);
    Csr {
        values,
        col_idx,
        row_ptr,
        x,
    }
}

struct Csr {
    values: Vec<f64>,
    col_idx: Vec<usize>,
    row_ptr: Vec<usize>,
    x: Vec<f64>,
}

impl Csr {
    fn spmv(&self, ctx: &mut dyn ArithContext) -> Vec<f64> {
        let mut out = vec![0.0; self.row_ptr.len() - 1];
        ctx.spmv_slice(
            &self.values,
            &self.col_idx,
            &self.row_ptr,
            &self.x,
            &mut out,
        );
        out
    }
}

#[test]
fn spmv_slice_matches_scalar_default() {
    check_kernel("spmv_slice", |ctx, rng, n, span| {
        // n rows × 9 columns.
        random_csr(rng, n, 9, span).spmv(ctx)
    });
}

#[test]
fn matvec_slice_with_rows_longer_than_a_block_matches_scalar_default() {
    // 513 columns: every row reduction crosses two 256-element
    // conversion blocks and ends in a one-element tail; 9 rows put the
    // product above the parallel gate.
    check_kernel_at("matvec_slice wide", &[0, 1, 2, 9], |ctx, rng, n, span| {
        let cols = 513;
        let span = span / (cols as f64).sqrt();
        let rows = random_slice(rng, n * cols, span);
        let x = random_slice(rng, cols, span);
        let mut out = vec![0.0; n];
        ctx.matvec_slice(&rows, cols, &x, &mut out);
        out
    });
}

#[test]
fn spmv_slice_with_rows_longer_than_a_block_matches_scalar_default() {
    // 700 columns, half stored: ~350 entries per row, so each row's
    // gather and reduction cross a 256-element block; 13 rows put the
    // stored-entry count above the parallel gate.
    check_kernel_at("spmv_slice wide", &[0, 1, 2, 13], |ctx, rng, n, span| {
        let csr = random_csr(rng, n, 700, span);
        if n > 0 {
            assert!(csr.row_ptr[1] > 256, "the first row must outgrow a block");
        }
        csr.spmv(ctx)
    });
}

#[test]
fn sum_slice_matches_scalar_default() {
    check_kernel("sum_slice", |ctx, rng, n, span| {
        let span = span / (n.max(1) as f64);
        let xs = random_slice(rng, n, span);
        vec![ctx.sum_slice(&xs)]
    });
}

/// Every slice kernel once, in a fixed order, on inputs drawn from
/// `rng`; returns all of their outputs.
fn every_kernel(ctx: &mut dyn ArithContext, rng: &mut Pcg32, n: usize, span: f64) -> Vec<f64> {
    // Shrink the span with n so the reductions stay inside the range.
    let span = span / (n.max(1) as f64);
    let alpha = rng.uniform(-4.0, 4.0);
    let xs = random_slice(rng, n, span);
    let ys = random_slice(rng, n, span);
    let mut all = Vec::new();
    let mut out = vec![0.0; n];
    ctx.add_slice(&xs, &ys, &mut out);
    all.extend_from_slice(&out);
    ctx.sub_slice(&xs, &ys, &mut out);
    all.extend_from_slice(&out);
    ctx.scale_slice(alpha, &xs, &mut out);
    all.extend_from_slice(&out);
    ctx.axpy_slice(alpha, &xs, &ys, &mut out);
    all.extend_from_slice(&out);
    let mut acc = ys.clone();
    ctx.add_assign_slice(&mut acc, &xs);
    ctx.axpy_assign_slice(&mut acc, alpha, &xs);
    all.extend_from_slice(&acc);
    all.push(ctx.dot_slice(&xs, &ys));
    all.push(ctx.sum_slice(&xs));
    let cols = 7;
    let rows = random_slice(rng, n * cols, span);
    let x = random_slice(rng, cols, span);
    let mut mv = vec![0.0; n];
    ctx.matvec_slice(&rows, cols, &x, &mut mv);
    all.extend_from_slice(&mv);
    // A shape with more rows than columns, so a gather that indexed `x`
    // by row or by position instead of by column would go wrong.
    all.extend(random_csr(rng, n, 5, span).spmv(ctx));
    all
}

#[test]
fn tracing_kernels_record_the_scalar_operand_pairs() {
    // While a trace is recorded the kernels must leave exactly the trace
    // the per-op path leaves: the same (a, b) bit patterns, in the same
    // operand order, in the same sequence.
    for cfg in configs() {
        for level in AccuracyLevel::ALL {
            let (mut fast, slow) = context_pair(cfg, level);
            let mut slow = slow.into_inner();
            fast.record_trace(usize::MAX);
            slow.record_trace(usize::MAX);
            let mut slow = ScalarPath::new(slow);
            for n in [0, 1, 2, 3, 17, 257] {
                let what = format!("traced kernels [{} {level:?} n={n}]", cfg.label());
                let mut rng_fast = Pcg32::seeded(0x7AACE + n as u64, 3);
                let mut rng_slow = Pcg32::seeded(0x7AACE + n as u64, 3);
                let span = span_for(cfg.format);
                let out_fast = every_kernel(&mut fast, &mut rng_fast, n, span);
                let out_slow = every_kernel(&mut slow, &mut rng_slow, n, span);
                assert_values_match(&out_fast, &out_slow, &what);
                assert_meters_match(&fast, &slow, &what);
                let (tf, ts) = (fast.trace().unwrap(), slow.inner().trace().unwrap());
                assert_eq!(tf.len(), ts.len(), "{what}: trace length");
                for (i, (a, b)) in tf.iter().zip(ts).enumerate() {
                    assert_eq!(a, b, "{what}: trace entry {i}");
                }
            }
        }
    }
}

#[test]
fn scalar_reductions_delegate_to_slice_kernels() {
    // `sum` and `dot` are defined as their `_slice` counterparts — the
    // satellite fix for the old double-bookkeeping: one reduction path,
    // one meter charge.
    for cfg in configs() {
        for level in AccuracyLevel::ALL {
            let (mut a, _) = context_pair(cfg, level);
            let (mut b, _) = context_pair(cfg, level);
            let mut rng = Pcg32::seeded(99, 7);
            let xs = random_slice(&mut rng, 23, span_for(cfg.format) / 23.0);
            let ys = random_slice(&mut rng, 23, span_for(cfg.format) / 23.0);
            assert_eq!(a.dot(&xs, &ys).to_bits(), b.dot_slice(&xs, &ys).to_bits());
            assert_eq!(a.sum(&xs).to_bits(), b.sum_slice(&xs).to_bits());
            assert_eq!(a.counts(), b.counts());
            assert_eq!(
                a.total_energy().to_bits(),
                b.total_energy().to_bits(),
                "{} {level:?}",
                cfg.label()
            );
        }
    }
}

#[test]
fn interleaved_kernel_sequences_match() {
    // A realistic solver inner loop mixes kernels and scalar ops; the
    // meters and values must stay in lockstep across a whole sequence,
    // not just per call.
    for cfg in configs() {
        let (mut fast, mut slow) = context_pair(cfg, AccuracyLevel::Level2);
        let mut rng_fast = Pcg32::seeded(4242, 0);
        let mut rng_slow = Pcg32::seeded(4242, 0);
        let span = span_for(cfg.format) / 16.0;
        let drive = |ctx: &mut dyn ArithContext, rng: &mut Pcg32| -> Vec<f64> {
            let mut state = random_slice(rng, 33, span);
            for round in 0..6 {
                let other = random_slice(rng, 33, span);
                let alpha = rng.uniform(-1.5, 1.5);
                ctx.axpy_assign_slice(&mut state, alpha, &other);
                let d = ctx.dot_slice(&state, &other);
                let scalar = ctx.add(d, f64::from(round));
                let mut scaled = vec![0.0; 33];
                ctx.scale_slice(
                    ctx.datapath_format().map_or(0.5, |f| f.resolution()),
                    &state,
                    &mut scaled,
                );
                ctx.add_assign_slice(&mut state, &scaled);
                state[0] = ctx.mul(scalar, 0.25);
            }
            state
        };
        let out_fast = drive(&mut fast, &mut rng_fast);
        let out_slow = drive(&mut slow, &mut rng_slow);
        assert_values_match(&out_fast, &out_slow, &cfg.label());
        assert_meters_match(&fast, &slow, &cfg.label());
    }
}
