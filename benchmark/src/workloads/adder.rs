//! `adder-sweep`: exhaustive packed gate-level error characterization
//! (`exhaustive_error_bound_with`) of a reduced-width QCS adder's four
//! approximate levels against `builders::modular_adder`. At width 13
//! each level is 2²⁶ input patterns.
//!
//! Why: this is the offline `gatesim` stage. The energy profiles the
//! other workloads characterize take only milliseconds of gate
//! simulation, so without this workload `gatesim` goes unmeasured.
//!
//! The sweep is exhaustive and has no random input. The seed drives the
//! random stimulus of the adder's gate-level energy characterization in
//! set-up, whose per-level energies the workload reports as `energy`.

use approx_arith::{AccuracyLevel, Adder, EnergyProfile, QcsAdder};
use gatesim::equiv::{error_bound, exhaustive_error_bound_with, ErrorBound};
use gatesim::{builders, EnergyModel, Netlist};
use parx::Executor;

use super::{paired, speedup_1t, time_box, timed, Checks, EndToEnd, Env, Outcome, Setup};
use crate::layers::{self, Extras};
use crate::stats::{Better, Metric};
use crate::trace;

/// Operand width of the swept adder.
pub const WIDTH: usize = 13;
/// Approximated low bits of levels 1–4: the paper-default 32-bit
/// split (20/15/10/5) scaled to the reduced width.
const APPROX_BITS: [u32; 4] = [8, 6, 4, 2];
/// Random vectors per level in the energy characterization.
const PROFILE_SAMPLES: u64 = 4096;

struct Prepared {
    approx: Vec<(AccuracyLevel, Netlist)>,
    exact: Netlist,
    /// The BDD engine's exact bounds, the reference the sweep must match.
    reference: Vec<ErrorBound>,
    profile: EnergyProfile,
    profile_s: f64,
}

fn setup(seed: u64) -> Prepared {
    let qcs = QcsAdder::new(WIDTH as u32, APPROX_BITS);
    let approx: Vec<(AccuracyLevel, Netlist)> = AccuracyLevel::APPROXIMATE
        .iter()
        .map(|&level| (level, qcs.at(level).netlist().0))
        .collect();
    let exact = builders::modular_adder(WIDTH).0;
    let reference = approx
        .iter()
        .map(|(_, nl)| error_bound(nl, &exact).expect("13-bit adders fit the BDD budget"))
        .collect();
    let (profile_s, profile) =
        timed(|| EnergyProfile::characterize(&qcs, PROFILE_SAMPLES, seed, &EnergyModel::default()));
    Prepared {
        approx,
        exact,
        reference,
        profile,
        profile_s,
    }
}

/// Patterns one level's sweep evaluates.
fn patterns_per_level() -> u64 {
    1u64 << (2 * WIDTH)
}

fn sweep_level(p: &Prepared, i: usize, exec: &Executor) -> ErrorBound {
    exhaustive_error_bound_with(&p.approx[i].1, &p.exact, exec).expect("within the sweep ceiling")
}

fn sweep(p: &Prepared, exec: &Executor) -> Vec<ErrorBound> {
    (0..p.approx.len())
        .map(|i| sweep_level(p, i, exec))
        .collect()
}

/// Packed and symbolic engines agree on rate, worst absolute and worst
/// ring error (their witnesses may legitimately differ).
fn matches(packed: &ErrorBound, symbolic: &ErrorBound) -> bool {
    packed.error_rate.to_bits() == symbolic.error_rate.to_bits()
        && packed.max_abs_error == symbolic.max_abs_error
        && packed.max_ring_error == symbolic.max_ring_error
}

fn sweep_ok(p: &Prepared, bounds: &[ErrorBound]) -> bool {
    bounds.len() == p.reference.len() && bounds.iter().zip(&p.reference).all(|(a, b)| matches(a, b))
}

pub fn run(env: &Env, traced: bool) -> Outcome {
    let exec = env.exec;
    let mut checks = Checks::default();
    if traced {
        return run_traced(env, checks);
    }
    let (mut set_up, p) = Setup::start(|| setup(env.seed));
    let sweeps = time_box(env.seconds, 2, || sweep(&p, &exec), || set_up.between());
    let setup_s = set_up.times;
    for (_, bounds) in &sweeps {
        checks.operation(sweep_ok(&p, bounds));
    }
    checks.check(
        "every repeated sweep equals the BDD error bounds",
        sweeps.iter().all(|(_, b)| sweep_ok(&p, b)),
        format!("{} sweeps", sweeps.len()),
    );
    for ((level, _), (packed, symbolic)) in
        p.approx.iter().zip(sweeps[0].1.iter().zip(&p.reference))
    {
        checks.check(
            format!("{level}: packed sweep equals the BDD error bound"),
            matches(packed, symbolic),
            format!(
                "rate {:.6}, max |err| {}, ring {}",
                packed.error_rate, packed.max_abs_error, packed.max_ring_error
            ),
        );
    }
    let patterns = p.approx.len() as f64 * patterns_per_level() as f64;
    let e2e = EndToEnd {
        unit_s: sweeps.iter().map(|(t, _)| *t).collect(),
        setup_s,
        energy: AccuracyLevel::APPROXIMATE
            .iter()
            .map(|&l| p.profile.add_energy(l))
            .sum(),
        quality_err: sweeps[0].1[0].max_ring_error as f64 / (1u64 << WIDTH) as f64,
    };
    let extra = vec![Metric::new(
        "patterns_per_s",
        "1/s",
        Better::Higher,
        sweeps.iter().map(|(t, _)| patterns / t).collect(),
    )];
    Outcome {
        metrics: e2e.metrics(),
        extra,
        checks,
        trace: None,
    }
}

fn run_traced(env: &Env, mut checks: Checks) -> Outcome {
    let exec = env.exec;
    let p = setup(env.seed);
    let sweeps = paired(
        env.seconds,
        &[],
        || sweep(&p, &exec),
        || {
            (0..p.approx.len())
                .map(|i| {
                    let _s = trace::span("gatesim.sweep");
                    sweep_level(&p, i, &exec)
                })
                .collect::<Vec<_>>()
        },
    );
    let witnesses = |bounds: &Vec<ErrorBound>| {
        let fields: Vec<_> = bounds
            .iter()
            .map(|b| {
                (
                    b.error_rate.to_bits(),
                    b.max_abs_error,
                    b.max_ring_error,
                    b.worst_case_inputs.clone(),
                )
            })
            .collect();
        fields
    };
    let identical = sweeps.identical(witnesses);
    checks.check(
        "traced sweeps are bit-identical to the untraced sweeps",
        identical,
        format!(
            "rate, worst errors and witnesses of every level; {} pairs",
            sweeps.traced.len()
        ),
    );
    for (_, bounds) in &sweeps.traced {
        checks.operation(identical && sweep_ok(&p, bounds));
    }
    checks.check(
        "traced sweeps equal the BDD error bounds",
        sweeps.traced.iter().all(|(_, b)| sweep_ok(&p, b)),
        "every level",
    );

    // One level at one thread against all threads.
    let threads = exec.threads();
    let (sweep_speedup, identical) = speedup_1t(
        exec,
        |exec| timed(|| sweep_level(&p, 0, &exec)),
        |one, all| matches(one, all) && one.worst_case_inputs == all.worst_case_inputs,
    );
    checks.check(
        format!("1-thread and {threads}-thread sweeps are bit-identical"),
        identical,
        "level 1",
    );

    let mut extras = Extras::default();
    extras.set("parx.threads", threads as f64);
    extras.set("parx.sweep_speedup_1t", sweep_speedup);
    extras.set(
        "gatesim.sweep_s",
        sweeps.trace.stat("gatesim.sweep").total_s() / sweeps.units(),
    );
    extras.set("gatesim.profile_s", p.profile_s);
    extras.set("trace.overhead_frac", sweeps.overhead());
    Outcome {
        metrics: layers::collect(&sweeps.trace, sweeps.units(), threads, &extras),
        extra: Vec::new(),
        checks,
        trace: Some(sweeps.trace),
    }
}
