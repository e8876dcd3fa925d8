//! The four workloads and what they share: output checks, set-up
//! repetition, the measuring loop, the traced run's paired loop, run
//! fingerprints for bit-identity checks, and the conversion probe.

pub mod adder;
pub mod paper;
pub mod poisson;
pub mod service;

use std::time::Instant;

use approx_arith::QFormat;
use approxit::RunReport;
use parx::Executor;

use crate::layers::Extras;
use crate::stats::Metric;
use crate::trace::Trace;

/// Set-up runs at the start of a run, at least.
const SETUP_REPS: usize = 3;
/// The set-up at the start of a run repeats until its runs took this
/// long in all, so a quick set-up gets enough runs for a steady median.
const SETUP_MIN_S: f64 = 1.0;
/// Share of the measuring loop spent repeating the set-up between timed
/// units. A quick set-up's time swings by more than a third from one
/// second to the next on a shared machine; spreading its runs over the
/// whole loop makes their median as steady as the timed units'.
const SETUP_SHARE: f64 = 0.1;

/// What every workload run is given.
pub struct Env {
    pub exec: Executor,
    pub seed: u64,
    pub seconds: f64,
}

/// A named pass/fail output check.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Output checks plus the operation tally behind `attempted`/`failed`.
#[derive(Default)]
pub struct Checks {
    pub list: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations are an expected outcome the workload reports
    /// (a service may refuse a request) rather than a wrong output.
    pub failures_expected: bool,
}

impl Checks {
    /// Record one check that is not itself an operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.list.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Record one operation (a solve, a request, a sweep) and whether its
    /// output passed.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn all_ok(&self) -> bool {
        (self.failed == 0 || self.failures_expected) && self.list.iter().all(|c| c.ok)
    }
}

/// Everything a workload run reports.
pub struct Outcome {
    /// The gated metrics: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end metrics, printed but not gated.
    pub extra: Vec<Metric>,
    pub checks: Checks,
    /// The traced run's recording, written out at the end.
    pub trace: Option<Trace>,
}

/// A workload's set-up, run at the start of a run and again between
/// its timed units. `setup_s` is the median of [`Setup::times`].
pub struct Setup<F> {
    setup: F,
    /// Wall clock of every set-up run.
    pub times: Vec<f64>,
    loop_start: Instant,
    repeated_s: f64,
}

impl<F> Setup<F> {
    /// Set up at least [`SETUP_REPS`] times and until [`SETUP_MIN_S`]
    /// passed; returns the last result for the timed units.
    pub fn start<P>(mut setup: F) -> (Self, P)
    where
        F: FnMut() -> P,
    {
        let mut times: Vec<f64> = Vec::new();
        let mut last = None;
        while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
            let (t, value) = timed(&mut setup);
            times.push(t);
            last = Some(value);
        }
        let setup = Self {
            setup,
            times,
            loop_start: Instant::now(),
            repeated_s: 0.0,
        };
        (setup, last.expect("SETUP_REPS > 0"))
    }

    /// Between two timed units: repeat the set-up while its repeats took
    /// less than [`SETUP_SHARE`] of the time since [`Setup::start`]
    /// returned. The repeated results are dropped untimed.
    pub fn between<P>(&mut self)
    where
        F: FnMut() -> P,
    {
        while self.repeated_s < SETUP_SHARE * self.loop_start.elapsed().as_secs_f64() {
            let (t, _) = timed(&mut self.setup);
            self.repeated_s += t;
            self.times.push(t);
        }
    }
}

/// Call `unit` until `seconds` have passed and at least `min_units`
/// ran, and `between` after each call; returns each call's wall clock
/// and result.
pub fn time_box<T>(
    seconds: f64,
    min_units: usize,
    mut unit: impl FnMut() -> T,
    mut between: impl FnMut(),
) -> Vec<(f64, T)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_units || start.elapsed().as_secs_f64() < seconds {
        out.push(timed(&mut unit));
        between();
    }
    out
}

/// Alternations of the 1-thread and all-threads runs behind a
/// `parx.*_speedup_1t` metric.
const SPEEDUP_PAIRS: usize = 3;

/// `parx.*_speedup_1t`: the median over [`SPEEDUP_PAIRS`] alternations
/// of the time `run` reports at one thread over the time at `exec`'s
/// threads, and whether every pair's results `same` agree.
pub fn speedup_1t<T>(
    exec: Executor,
    mut run: impl FnMut(Executor) -> (f64, T),
    same: impl Fn(&T, &T) -> bool,
) -> (f64, bool) {
    let mut ratios = Vec::with_capacity(SPEEDUP_PAIRS);
    let mut identical = true;
    for _ in 0..SPEEDUP_PAIRS {
        let (t1, one) = run(Executor::with_threads(1));
        let (tn, all) = run(exec);
        ratios.push(t1 / tn);
        identical &= same(&one, &all);
    }
    (crate::stats::median(&ratios), identical)
}

/// What [`paired`] measured: each untraced and traced unit with its
/// wall clock, and the recording of all traced units.
pub struct Paired<T> {
    pub plain: Vec<(f64, T)>,
    pub traced: Vec<(f64, T)>,
    pub trace: Trace,
}

impl<T> Paired<T> {
    pub fn units(&self) -> f64 {
        self.traced.len() as f64
    }

    /// Whether each traced unit's fingerprint equals its untraced twin's.
    pub fn identical<F: PartialEq>(&self, fp: impl Fn(&T) -> F) -> bool {
        self.plain
            .iter()
            .zip(&self.traced)
            .all(|((_, a), (_, b))| fp(a) == fp(b))
    }

    /// `trace.overhead_frac`: median traced over median untraced time.
    pub fn overhead(&self) -> f64 {
        let times = |v: &[(f64, T)]| v.iter().map(|(t, _)| *t).collect::<Vec<_>>();
        crate::stats::median(&times(&self.traced)) / crate::stats::median(&times(&self.plain)) - 1.0
    }
}

/// The traced run's loop: alternate one untraced and one traced unit
/// until `seconds` pass (at least one pair). Spans are recorded only by
/// the decorators the traced unit uses; `keep_durations` as in
/// [`crate::trace::start`].
pub fn paired<T>(
    seconds: f64,
    keep_durations: &'static [&'static str],
    mut plain: impl FnMut() -> T,
    mut traced: impl FnMut() -> T,
) -> Paired<T> {
    let start = Instant::now();
    let mut out = Paired {
        plain: Vec::new(),
        traced: Vec::new(),
        trace: Trace::default(),
    };
    crate::trace::start(keep_durations);
    while out.traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        out.plain.push(timed(&mut plain));
        out.traced.push(timed(&mut traced));
    }
    out.trace = crate::trace::finish();
    out
}

/// Wall clock of one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// One offline characterization through a traced method, recorded on
/// its own: its wall clock and the method steps it took.
pub fn traced_characterize<T>(characterize: impl FnOnce() -> T) -> (f64, f64) {
    crate::trace::start(&[]);
    let (t, _) = timed(characterize);
    (t, crate::trace::finish().stat("method.step").calls as f64)
}

/// The bits of a run that tracing must not change: final parameters,
/// op counts, energy meters, iterations, rollbacks and level schedule.
pub fn fingerprint(report: &RunReport, params: &[f64]) -> Vec<u64> {
    let mut fp: Vec<u64> = params.iter().map(|p| p.to_bits()).collect();
    fp.extend([
        report.op_counts.adds,
        report.op_counts.muls,
        report.op_counts.divs,
        report.approx_energy.to_bits(),
        report.total_energy.to_bits(),
        report.iterations as u64,
        report.rollbacks as u64,
        report.final_objective.to_bits(),
    ]);
    fp.extend(report.level_schedule.iter().map(|l| l.index() as u64));
    fp
}

/// FNV-1a over 64-bit words: a compact stand-in for a fingerprint when
/// many runs must be compared without keeping them.
pub fn hash(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Nanoseconds per element of one `to_raw_slice` + `from_raw_slice`
/// round trip at length `n` in `format` (median of several probes).
pub fn convert_ns_per_elem(format: QFormat, n: usize) -> f64 {
    let conv = format.converter();
    let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.618).sin() * 100.0).collect();
    let mut raws = vec![0i64; n];
    let mut back = vec![0.0f64; n];
    let reps = (2_000_000 / n.max(1)).clamp(1, 10_000);
    let probes: Vec<f64> = (0..7)
        .map(|_| {
            let (t, ()) = timed(|| {
                for _ in 0..reps {
                    conv.to_raw_slice(std::hint::black_box(&xs), &mut raws);
                    conv.from_raw_slice(std::hint::black_box(&raws), &mut back);
                }
            });
            t * 1e9 / (reps * n) as f64
        })
        .collect();
    crate::stats::median(&probes)
}

/// `OpCounts` of a list of runs, as per-unit extras.
pub fn add_op_counts(extras: &mut Extras, reports: &[&RunReport], units: f64) {
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64 / units;
    extras.set("ctx.adds", sum(|r| r.op_counts.adds));
    extras.set("ctx.muls", sum(|r| r.op_counts.muls));
    extras.set("ctx.divs", sum(|r| r.op_counts.divs));
    let steps: usize = reports.iter().map(|r| r.iterations).sum();
    let useful: usize = reports
        .iter()
        .map(|r| r.iterations.saturating_sub(r.rollbacks))
        .sum();
    extras.set(
        "runner.useful_step_ratio",
        if steps == 0 {
            0.0
        } else {
            useful as f64 / steps as f64
        },
    );
    extras.set(
        "runner.checkpoints",
        sum(|r| r.recovery.checkpoints_taken as u64),
    );
}

/// The gated end-to-end numbers every workload reports, before `main`
/// adds `peak_rss_mb`.
pub struct EndToEnd {
    /// Wall clock of each timed unit.
    pub unit_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Exact model energy per timed unit.
    pub energy: f64,
    pub quality_err: f64,
}

impl EndToEnd {
    pub fn metrics(self) -> Vec<Metric> {
        use crate::stats::Better::Lower;
        vec![
            Metric::new("time_to_solution_s", "s", Lower, self.unit_s),
            Metric::new("setup_s", "s", Lower, self.setup_s),
            Metric::one("energy", "units", Lower, self.energy),
            Metric::one("quality_err", "1", Lower, self.quality_err),
        ]
    }
}
