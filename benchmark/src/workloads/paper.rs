//! `paper-tables`: the paper's six Table 2 datasets (three GMM-EM,
//! three AR gradient-descent; `bench::specs`) at Q15.16. Each runs
//! Truth once in set-up, then incremental and adaptive in the timed
//! pass, as in Tables 3(b) and 4(b).
//!
//! Why: these are the paper's own numbers. The vectors are short, so
//! exact monitoring and dense fused matvecs dominate and there is no
//! spmv; the narrow width takes the SWAR paths that `poisson-100k`
//! skips. It runs on one executor thread (see `main.rs`).
//!
//! The datasets are fixed by the paper's specification. The seed drives
//! the random stimulus of the gate-level energy characterization that
//! produces the run's `EnergyProfile`.

use approx_arith::{EnergyProfile, QFormat, QcsAdder, QcsContext};
use approxit::{
    characterize_on_with, AdaptiveAngleStrategy, CharacterizationTable, IncrementalStrategy,
    ReconfigStrategy, RunConfig, RunOutcome, RunReport, SingleMode,
};
use approxit_bench::specs::{ar_specs, gmm_specs};
use gatesim::EnergyModel;
use iter_solvers::metrics::{hamming_distance, l2_error};
use iter_solvers::{AutoRegression, GaussianMixture, IterativeMethod};
use parx::Executor;

use super::{
    add_op_counts, convert_ns_per_elem, fingerprint, paired, time_box, timed, traced_characterize,
    Checks, EndToEnd, Env, Outcome, Setup,
};
use crate::decor::{TracedCtx, TracedMethod, TracedStrategy};
use crate::layers::{self, Extras};
use crate::stats::{Better, Metric};
use crate::trace;

/// Offline characterization length, as in `bench::tables`.
const CHAR_ITERS: usize = 5;
/// Random vectors per level in the gate-level energy characterization
/// (the paper-default profile's count).
const PROFILE_SAMPLES: u64 = 512;
/// AR "Truth quality": coefficient ℓ2 distance to the Truth run below
/// the smallest error the paper reports in Table 4(b) (0.0011).
pub const AR_TRUTH_TOL: f64 = 1e-3;

enum Model {
    Gmm(TracedMethod<GaussianMixture>, usize),
    Ar(TracedMethod<AutoRegression>),
}

struct Dataset {
    name: String,
    model: Model,
    table: CharacterizationTable,
    truth: RunReport,
    /// GMM: Truth's hard assignments; AR: Truth's coefficients.
    truth_labels: Vec<usize>,
    truth_params: Vec<f64>,
}

struct Prepared {
    profile: EnergyProfile,
    data: Vec<Dataset>,
    profile_s: f64,
}

/// One reconfigured run of one dataset.
struct Row {
    name: String,
    strategy: String,
    qem: f64,
    energy_norm: f64,
    report: RunReport,
    fp: Vec<u64>,
}

fn ctx(profile: &EnergyProfile, exec: Executor) -> QcsContext {
    QcsContext::with_profile(profile.clone()).with_executor(exec)
}

fn setup(seed: u64, exec: Executor) -> Prepared {
    let (profile_s, profile) = timed(|| {
        EnergyProfile::characterize(
            &QcsAdder::paper_default(),
            PROFILE_SAMPLES,
            seed,
            &EnergyModel::default(),
        )
    });
    let mut data = Vec::new();
    for spec in gmm_specs() {
        let gmm = spec.model();
        let table = characterize_on_with(&gmm, &ctx(&profile, exec), CHAR_ITERS, &exec);
        let truth =
            RunConfig::new(&gmm, &mut ctx(&profile, exec)).execute(&mut SingleMode::accurate());
        data.push(Dataset {
            name: spec.name().to_owned(),
            truth_labels: gmm.assignments(&truth.state),
            truth_params: Vec::new(),
            truth: truth.report,
            model: Model::Gmm(TracedMethod(gmm), spec.dataset.k),
            table,
        });
    }
    for spec in ar_specs() {
        let ar = spec.model();
        let table = characterize_on_with(&ar, &ctx(&profile, exec), CHAR_ITERS, &exec);
        let truth =
            RunConfig::new(&ar, &mut ctx(&profile, exec)).execute(&mut SingleMode::accurate());
        data.push(Dataset {
            name: spec.name().to_owned(),
            truth_labels: Vec::new(),
            truth_params: truth.state,
            truth: truth.report,
            model: Model::Ar(TracedMethod(ar)),
            table,
        });
    }
    Prepared {
        profile,
        data,
        profile_s,
    }
}

fn strategies(table: &CharacterizationTable) -> [Box<dyn ReconfigStrategy>; 2] {
    [
        Box::new(IncrementalStrategy::from_characterization(table)),
        Box::new(AdaptiveAngleStrategy::from_characterization(table, 1)),
    ]
}

/// One run; the traced variant decorates context, strategy and (via the
/// caller) method, inside a `run` span.
fn execute<M: IterativeMethod>(
    method: &M,
    strategy: Box<dyn ReconfigStrategy>,
    profile: &EnergyProfile,
    exec: Executor,
    traced: bool,
) -> RunOutcome<M::State> {
    let mut plain_ctx = ctx(profile, exec);
    if traced {
        let _run = trace::span("run");
        let mut ctx = TracedCtx::new(plain_ctx);
        RunConfig::new(method, &mut ctx).execute(&mut TracedStrategy(strategy))
    } else {
        let mut strategy = strategy;
        RunConfig::new(method, &mut plain_ctx).execute(strategy.as_mut())
    }
}

/// Incremental and adaptive on every dataset.
fn pass(p: &Prepared, exec: Executor, traced: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for d in &p.data {
        for strategy in strategies(&d.table) {
            let (qem, report, fp) = match &d.model {
                Model::Gmm(gmm, k) => {
                    let out = if traced {
                        execute(gmm, strategy, &p.profile, exec, true)
                    } else {
                        execute(&gmm.0, strategy, &p.profile, exec, false)
                    };
                    let labels = gmm.0.assignments(&out.state);
                    let wrong = hamming_distance(&labels, &d.truth_labels, *k);
                    let fp = fingerprint(&out.report, &gmm.0.params(&out.state));
                    (wrong as f64 / labels.len() as f64, out.report, fp)
                }
                Model::Ar(ar) => {
                    let out = if traced {
                        execute(ar, strategy, &p.profile, exec, true)
                    } else {
                        execute(&ar.0, strategy, &p.profile, exec, false)
                    };
                    let fp = fingerprint(&out.report, &out.state);
                    (l2_error(&out.state, &d.truth_params), out.report, fp)
                }
            };
            rows.push(Row {
                name: d.name.clone(),
                strategy: report.strategy.clone(),
                qem,
                energy_norm: report.normalized_energy(&d.truth),
                report,
                fp,
            });
        }
    }
    rows
}

/// Truth quality (GMM: no point clustered differently from Truth; AR:
/// coefficients within [`AR_TRUTH_TOL`]) for less energy than Truth.
fn row_ok(row: &Row, p: &Prepared) -> bool {
    let gmm = p
        .data
        .iter()
        .any(|d| d.name == row.name && matches!(d.model, Model::Gmm(..)));
    let quality = if gmm {
        row.qem == 0.0
    } else {
        row.qem <= AR_TRUTH_TOL
    };
    quality && row.energy_norm < 1.0 && row.report.converged
}

fn energy_norm(rows: &[Row], p: &Prepared) -> f64 {
    let spent: f64 = rows.iter().map(|r| r.report.approx_energy).sum();
    let truth: f64 = rows
        .iter()
        .map(|r| {
            p.data
                .iter()
                .find(|d| d.name == r.name)
                .map_or(0.0, |d| d.truth.approx_energy)
        })
        .sum();
    spent / truth
}

pub fn run(env: &Env, traced: bool) -> Outcome {
    let exec = env.exec;
    let mut checks = Checks::default();
    if traced {
        return run_traced(env, checks);
    }
    let (mut set_up, p) = Setup::start(|| setup(env.seed, exec));
    let passes = time_box(
        env.seconds,
        2,
        || pass(&p, exec, false),
        || set_up.between(),
    );
    let setup_s = set_up.times;
    let first: Vec<&Vec<u64>> = passes[0].1.iter().map(|r| &r.fp).collect();
    for (_, rows) in &passes {
        for row in rows {
            checks.operation(row_ok(row, &p));
        }
    }
    for row in &passes[0].1 {
        checks.check(
            format!(
                "{} {} reaches Truth quality for less energy",
                row.name, row.strategy
            ),
            row_ok(row, &p),
            format!(
                "qem {:.3e}, energy {:.4} of Truth, {} iterations",
                row.qem, row.energy_norm, row.report.iterations
            ),
        );
    }
    checks.check(
        "repeated passes are bit-identical",
        passes
            .iter()
            .all(|(_, rows)| rows.iter().map(|r| &r.fp).eq(first.iter().copied())),
        format!("{} passes", passes.len()),
    );
    let rows = &passes[0].1;
    let e2e = EndToEnd {
        unit_s: passes.iter().map(|(t, _)| *t).collect(),
        setup_s,
        energy: rows.iter().map(|r| r.report.approx_energy).sum(),
        quality_err: rows.iter().map(|r| r.qem).fold(0.0, f64::max),
    };
    let extra = vec![
        Metric::one(
            "iterations",
            "count",
            Better::Lower,
            rows.iter().map(|r| r.report.iterations as f64).sum(),
        ),
        Metric::one("energy_norm", "1", Better::Lower, energy_norm(rows, &p)),
    ];
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
    let passes = paired(
        env.seconds,
        &[],
        || pass(&p, exec, false),
        || pass(&p, exec, true),
    );
    let identical = passes.identical(|rows| rows.iter().map(|r| r.fp.clone()).collect::<Vec<_>>());
    checks.check(
        "traced passes are bit-identical to the untraced passes",
        identical,
        format!(
            "values, op counts, energy, level schedule of all 12 runs; {} pairs",
            passes.traced.len()
        ),
    );
    let rows: Vec<&Row> = passes.traced.iter().flat_map(|(_, rows)| rows).collect();
    for row in &rows {
        checks.operation(identical && row_ok(row, &p));
    }
    checks.check(
        "every traced row reaches Truth quality for less energy",
        rows.iter().all(|row| row_ok(row, &p)),
        format!("{} runs", rows.len()),
    );
    let mut extras = Extras::default();
    let reports: Vec<&RunReport> = rows.iter().map(|r| &r.report).collect();
    add_op_counts(&mut extras, &reports, passes.units());
    let longest = ar_specs()
        .iter()
        .map(|s| s.series.num_samples())
        .max()
        .unwrap_or(1);
    extras.set(
        "convert.ns_per_elem",
        convert_ns_per_elem(QFormat::Q15_16, longest),
    );
    extras.set("parx.threads", exec.threads() as f64);
    let (characterize_s, characterize_steps) = traced_characterize(|| {
        for d in &p.data {
            let template = ctx(&p.profile, exec);
            match &d.model {
                Model::Gmm(gmm, _) => characterize_on_with(gmm, &template, CHAR_ITERS, &exec),
                Model::Ar(ar) => characterize_on_with(ar, &template, CHAR_ITERS, &exec),
            };
        }
    });
    extras.set("characterize.s", characterize_s);
    extras.set("characterize.steps", characterize_steps);
    extras.set("gatesim.profile_s", p.profile_s);
    extras.set("trace.overhead_frac", passes.overhead());
    Outcome {
        metrics: layers::collect(&passes.trace, passes.units(), exec.threads(), &extras),
        extra: Vec::new(),
        checks,
        trace: Some(passes.trace),
    }
}
