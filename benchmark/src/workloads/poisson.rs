//! `poisson-100k`: sparse CG on the 317² (100,489-unknown) five-point
//! Poisson system at Q31.32 under `AdaptiveAngleStrategy`, with a fixed
//! iteration deadline. The right-hand side comes from a manufactured
//! solution drawn from the seed, as in `sparseperf`.
//!
//! Why: the ROADMAP's acceptance scale. Spmv, the serial width-64
//! reductions and the elementwise kernels take most of the time and the
//! controller almost none, so kernel, operator and `parx` work shows
//! here first.
//!
//! The program misses `sparseperf`'s quality bound on most manufactured
//! solutions, so this workload's runs fail their output check and
//! `BENCHMARK.json` does not list it (see the README).

use approx_arith::{
    AccuracyLevel, ArithContext, EnergyProfile, LowPartPolicy, QFormat, QcsAdder, QcsContext,
};
use approx_linalg::{vector, CsrMatrix, LinearOperator};
use approxit::{
    characterize_on_with, AdaptiveAngleStrategy, CharacterizationTable, ReconfigStrategy,
    RunConfig, RunOutcome, RunReport,
};
use iter_solvers::rng::Pcg32;
use iter_solvers::{CgState, ConjugateGradient, IterativeMethod};
use parx::Executor;

use super::{
    add_op_counts, convert_ns_per_elem, fingerprint, hash, paired, speedup_1t, time_box,
    traced_characterize, Checks, EndToEnd, Env, Outcome, Setup,
};
use crate::decor::{TracedCtx, TracedMethod, TracedOp, TracedStrategy};
use crate::layers::{self, Extras};
use crate::stats::{Better, Metric};
use crate::trace;

const NX: usize = 317;
/// Iterations every solve runs (CG's own tolerance is never reached).
pub const DEADLINE: usize = 150;
/// Offline characterization length, as in `sparseperf`.
const CHAR_ITERS: usize = 4;
/// `sparseperf`'s quality bound on the relative L2 error against the
/// manufactured solution.
pub const QUALITY_BOUND: f64 = 2.5e-2;
/// Deadline of the shorter solves that compare kernel time at one
/// thread against all threads.
const SPEEDUP_DEADLINE: usize = 30;

/// The Q31.32 datapath of `sparseperf`'s graph-scale solve, with the
/// run's executor attached.
fn q31_ctx(exec: Executor) -> QcsContext {
    let adder = QcsAdder::with_policy(
        QFormat::Q31_32.width(),
        [36, 24, 12, 6],
        LowPartPolicy::Zero,
    );
    let profile = EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
    let mut ctx = QcsContext::new(adder, QFormat::Q31_32, profile).with_executor(exec);
    ctx.set_level(AccuracyLevel::Accurate);
    ctx
}

/// Manufactured solutions per run; the timed solves cycle through them,
/// so quality and energy are means over several right-hand sides.
const CASES: usize = 4;

/// One right-hand side with its characterization.
struct Case {
    cg: ConjugateGradient<CsrMatrix>,
    truth: Vec<f64>,
    table: CharacterizationTable,
}

struct Problem {
    cases: Vec<Case>,
}

fn setup(seed: u64, exec: Executor) -> Problem {
    let n = NX * NX;
    let a = CsrMatrix::poisson5(NX, NX);
    let cases = (0..CASES as u64)
        .map(|k| {
            let mut rng = Pcg32::seeded(seed, 2 + k);
            let truth: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let b = a.matvec_exact(&truth);
            let cg = ConjugateGradient::new(a.clone(), b, 1e-10, 900);
            let table = characterize_on_with(&cg, &q31_ctx(exec), CHAR_ITERS, &exec);
            Case { cg, truth, table }
        })
        .collect();
    Problem { cases }
}

fn solve<M: IterativeMethod, S: ReconfigStrategy>(
    method: &M,
    ctx: &mut impl ArithContext,
    strategy: &mut S,
    deadline: usize,
) -> RunOutcome<M::State> {
    RunConfig::new(method, ctx)
        .with_deadline(deadline)
        .execute(strategy)
}

/// What the untraced run keeps of one solve.
struct Solved {
    case: usize,
    fp: u64,
    rel: f64,
    iterations: usize,
    energy: f64,
    at_accurate: usize,
}

fn rel_l2(state: &CgState, truth: &[f64]) -> f64 {
    vector::dist2_exact(&state.x, truth) / vector::norm2_exact(truth)
}

/// One traced solve inside a `run` span (the recorder must be running).
fn traced_run(
    case: &Case,
    method: &TracedMethod<ConjugateGradient<TracedOp<CsrMatrix>>>,
    exec: Executor,
    deadline: usize,
) -> RunOutcome<CgState> {
    let _run = trace::span("run");
    let mut ctx = TracedCtx::new(q31_ctx(exec));
    let mut strategy = TracedStrategy(Box::new(AdaptiveAngleStrategy::from_characterization(
        &case.table,
        1,
    )));
    solve(method, &mut ctx, &mut strategy, deadline)
}

fn kernel_s(t: &trace::Trace) -> f64 {
    [
        "kernel.spmv",
        "kernel.reduce",
        "kernel.elementwise",
        "kernel.matvec",
    ]
    .iter()
    .map(|k| t.stat(k).total_s())
    .sum()
}

pub fn run(env: &Env, traced: bool) -> Outcome {
    let exec = env.exec;
    let mut checks = Checks::default();
    if traced {
        return run_traced(env, checks);
    }
    let (mut set_up, p) = Setup::start(|| setup(env.seed, exec));
    // Each solve is reduced to its numbers at once, so memory does not
    // grow with the number of solves that fit in the run.
    let mut next = 0;
    let unit = || {
        let k = next % CASES;
        next += 1;
        let case = &p.cases[k];
        let mut ctx = q31_ctx(exec);
        let mut strategy = AdaptiveAngleStrategy::from_characterization(&case.table, 1);
        let run = solve(&case.cg, &mut ctx, &mut strategy, DEADLINE);
        Solved {
            case: k,
            fp: hash(&fingerprint(&run.report, &run.state.x)),
            rel: rel_l2(&run.state, &case.truth),
            iterations: run.report.iterations,
            energy: run.report.approx_energy,
            at_accurate: run.report.steps_at(AccuracyLevel::Accurate),
        }
    };
    let runs = time_box(env.seconds, CASES, unit, || set_up.between());
    for (_, s) in &runs {
        checks.operation(s.rel <= QUALITY_BOUND && s.iterations == DEADLINE);
    }
    // The first solve of each case (the loop runs every case at least once).
    let firsts: Vec<&Solved> = (0..CASES)
        .filter_map(|k| runs.iter().map(|(_, s)| s).find(|s| s.case == k))
        .collect();
    let errs: Vec<String> = firsts.iter().map(|s| format!("{:.3e}", s.rel)).collect();
    checks.check(
        format!("rel-L2 against the manufactured solutions within sparseperf's {QUALITY_BOUND:e}"),
        runs.iter().all(|(_, s)| s.rel <= QUALITY_BOUND),
        format!("rel-L2 {} after {DEADLINE} iterations", errs.join(", ")),
    );
    checks.check(
        "repeated solves of a case are bit-identical",
        runs.iter().all(|(_, s)| s.fp == firsts[s.case].fp),
        format!("{} solves of {CASES} cases", runs.len()),
    );
    let mean =
        |f: fn(&Solved) -> f64| firsts.iter().map(|s| f(s)).sum::<f64>() / firsts.len() as f64;
    let e2e = EndToEnd {
        unit_s: runs.iter().map(|(t, _)| *t).collect(),
        setup_s: set_up.times,
        energy: mean(|s| s.energy),
        quality_err: mean(|s| s.rel),
    };
    let extra = vec![Metric::one(
        "steps_at_accurate",
        "count",
        Better::Lower,
        mean(|s| s.at_accurate as f64),
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
    let p = setup(env.seed, exec);
    let case = &p.cases[0];
    let method = TracedMethod(ConjugateGradient::new(
        TracedOp(case.cg.operator().clone()),
        case.cg.rhs().to_vec(),
        1e-10,
        900,
    ));

    let runs = paired(
        env.seconds,
        &[],
        || {
            let mut ctx = q31_ctx(exec);
            let mut strategy = AdaptiveAngleStrategy::from_characterization(&case.table, 1);
            solve(&case.cg, &mut ctx, &mut strategy, DEADLINE)
        },
        || traced_run(case, &method, exec, DEADLINE),
    );
    let fp = |r: &RunOutcome<CgState>| fingerprint(&r.report, &r.state.x);
    let identical = runs.identical(fp);
    checks.check(
        "traced solves are bit-identical to the untraced solves",
        identical,
        format!(
            "values, op counts, energy, level schedule; {} pairs",
            runs.traced.len()
        ),
    );
    let rels: Vec<f64> = runs
        .traced
        .iter()
        .map(|(_, r)| rel_l2(&r.state, &case.truth))
        .collect();
    for &rel in &rels {
        checks.operation(identical && rel <= QUALITY_BOUND);
    }
    checks.check(
        format!("rel-L2 against the manufactured solution within sparseperf's {QUALITY_BOUND:e}"),
        rels.iter().all(|&rel| rel <= QUALITY_BOUND),
        format!("rel-L2 {:.4e}", rels[0]),
    );

    // Kernel time at one thread against all threads, on shorter solves.
    let threads = exec.threads();
    let (kernel_speedup, identical) = speedup_1t(
        exec,
        |exec| {
            trace::start(&[]);
            let run = traced_run(case, &method, exec, SPEEDUP_DEADLINE);
            (
                kernel_s(&trace::finish()),
                fingerprint(&run.report, &run.state.x),
            )
        },
        |a, b| a == b,
    );
    checks.check(
        format!("1-thread and {threads}-thread solves are bit-identical"),
        identical,
        format!("{SPEEDUP_DEADLINE} iterations"),
    );

    let mut extras = Extras::default();
    let reports: Vec<&RunReport> = runs.traced.iter().map(|(_, r)| &r.report).collect();
    add_op_counts(&mut extras, &reports, runs.units());
    extras.set(
        "convert.ns_per_elem",
        convert_ns_per_elem(QFormat::Q31_32, NX * NX),
    );
    extras.set("parx.threads", threads as f64);
    extras.set("parx.kernel_speedup_1t", kernel_speedup);
    let (characterize_s, characterize_steps) =
        traced_characterize(|| characterize_on_with(&method, &q31_ctx(exec), CHAR_ITERS, &exec));
    extras.set("characterize.s", characterize_s);
    extras.set("characterize.steps", characterize_steps);
    extras.set("trace.overhead_frac", runs.overhead());
    Outcome {
        metrics: layers::collect(&runs.trace, runs.units(), threads, &extras),
        extra: Vec::new(),
        checks,
        trace: Some(runs.trace),
    }
}
