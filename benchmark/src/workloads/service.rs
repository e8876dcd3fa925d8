//! `service-mix`: a closed loop of K clients, each submitting one small
//! dense-CG request per round to one `SolverService` and waiting for the
//! round to drain before its next request. The request mix, the retry
//! and breaker settings and the SEU rate are those of the faulty mixed
//! campaign in `tests/solver_service.rs`: mixed sizes, requested levels
//! and deadlines. As in `chaos`'s storm, the seeded SEUs strike only
//! Level1/Level2 attempts, so retries, breakers and checkpoints do real
//! work.
//!
//! Why: `parx` fans out across requests instead of within kernels, the
//! kernels stay below the parallel gate, and service-layer changes show
//! here and in no solve workload.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use approx_arith::{
    AccuracyLevel, ArithContext, EnergyProfile, FaultInjector, QFormat, QcsContext,
};
use approx_linalg::{decomp, vector, LinearOperator, Matrix};
use approxit::service::{
    AttemptSpec, BreakerConfig, Request, ServiceConfig, ServiceReport, SolverService,
};
use approxit::{Outcome as RunVerdict, ReconfigStrategy, SingleMode};
use iter_solvers::rng::Pcg32;
use iter_solvers::{CgState, ConjugateGradient, IterativeMethod};
use parx::Executor;

use super::{convert_ns_per_elem, paired, timed, Checks, EndToEnd, Env, Outcome, Setup};
use crate::decor::{TracedCtx, TracedMethod, TracedOp, TracedStrategy};
use crate::layers::{self, Extras};
use crate::stats::{percentile, samples_for, tail_percentile, Better, Metric};
use crate::trace;

/// Closed-loop clients: the campaign's nine requests per drain.
pub const CLIENTS: usize = 9;
/// Rounds in one pass over the request pool. Half the requests have
/// the campaign's orders, so a pass holds as many of them (9216) as a
/// pass of campaign-only requests at 1024 rounds would.
const POOL_ROUNDS: usize = 2048;
/// Distinct requests the clients cycle through.
const POOL: usize = POOL_ROUNDS * CLIENTS;
/// System orders: the campaign's `6 + i % 4`, and as many larger ones.
/// At the campaign's orders alone a round spends more time outside
/// solving (bookkeeping, spawning and waking the executor's threads,
/// waiting for its last attempt) than in it, and its drain time swung
/// by up to two thirds between runs minutes apart; the larger systems
/// make a round mostly solving.
const SIZES: [usize; 8] = [6, 7, 8, 9, 16, 18, 20, 22];
/// Requested levels, as in the campaign.
const LEVELS: [AccuracyLevel; 4] = [
    AccuracyLevel::Level1,
    AccuracyLevel::Level2,
    AccuracyLevel::Level4,
    AccuracyLevel::Accurate,
];
/// Iteration deadline of every third request, as in the campaign.
const DEADLINE: usize = 40;
/// CG tolerance and iteration budget of the campaign's systems.
const TOLERANCE: f64 = 1e-6;
const MAX_ITERATIONS: usize = 200;
/// Fraction of adds an SEU strikes, and the low result bits it may
/// flip, as in the campaign (which strikes every approximate level;
/// here only Level1 and Level2 are struck, as in `chaos`).
const FAULT_RATE: f64 = 0.05;
const FAULT_BITS: u32 = 12;
/// Retry budget and breaker settings, as in the campaign.
const MAX_ATTEMPTS: usize = 3;
const BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 2,
    cooldown_rounds: 1,
};

/// One pool entry: the request and its exact solution.
struct Job {
    cg: ConjugateGradient,
    level: AccuracyLevel,
    deadline: Option<usize>,
    exact: Vec<f64>,
}

struct Prepared {
    seed: u64,
    profile: EnergyProfile,
    pool: Vec<Job>,
}

/// A well-conditioned SPD system `A = M·Mᵀ/n + I` (as in the campaign).
fn spd_system(n: usize, rng: &mut Pcg32) -> (Matrix, Vec<f64>) {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = rng.uniform(-1.0, 1.0);
        }
    }
    let mut a = m.matmul_exact(&m.transpose());
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] /= n as f64;
        }
        a[(i, i)] += 1.0;
    }
    let b: Vec<f64> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
    (a, b)
}

fn setup(seed: u64) -> Prepared {
    let mut rng = Pcg32::seeded(seed, 5);
    let pool = (0..POOL)
        .map(|i| {
            let n = SIZES[rng.below(SIZES.len() as u64) as usize];
            let level = LEVELS[rng.below(LEVELS.len() as u64) as usize];
            let (a, b) = spd_system(n, &mut rng);
            let exact = decomp::solve(&a, &b).expect("SPD systems are non-singular");
            Job {
                cg: ConjugateGradient::new(a, b, TOLERANCE, MAX_ITERATIONS),
                level,
                deadline: (i % 3 == 0).then_some(DEADLINE),
                exact,
            }
        })
        .collect();
    Prepared {
        seed,
        // The campaign's constant energy profile.
        profile: EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0),
        pool,
    }
}

/// A request's method with a shared step counter, so a request's
/// iterations can be summed over all its attempts (the service reports
/// only the final attempt's run). One relaxed add per iteration.
struct Counted<A = Matrix> {
    cg: ConjugateGradient<A>,
    steps: Arc<AtomicUsize>,
}

impl<A: LinearOperator> IterativeMethod for Counted<A> {
    type State = CgState;

    fn name(&self) -> &str {
        self.cg.name()
    }

    fn initial_state(&self) -> CgState {
        self.cg.initial_state()
    }

    fn step(&self, state: &CgState, ctx: &mut dyn ArithContext) -> CgState {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.cg.step(state, ctx)
    }

    fn objective(&self, state: &CgState) -> f64 {
        self.cg.objective(state)
    }

    fn gradient(&self, state: &CgState) -> Option<Vec<f64>> {
        self.cg.gradient(state)
    }

    fn params(&self, state: &CgState) -> Vec<f64> {
        self.cg.params(state)
    }

    fn converged(&self, prev: &CgState, next: &CgState) -> bool {
        self.cg.converged(prev, next)
    }

    fn max_iterations(&self) -> usize {
        self.cg.max_iterations()
    }

    fn deadline_hint(&self) -> Option<usize> {
        self.cg.deadline_hint()
    }
}

/// One finished request, reduced to what the metrics and the
/// bit-identity check need.
struct Served {
    /// Completed or Degraded: the service returned a result.
    delivered: bool,
    /// Delivered with a finite objective within its quality floor.
    floor_ok: bool,
    verdict: RunVerdict,
    attempts: usize,
    reroutes: usize,
    iterations: usize,
    rel_err: f64,
    energy: f64,
    /// The final attempt's report, kept only for the traced run's
    /// per-layer counts.
    report: Option<Box<approxit::RunReport>>,
    /// Hash of everything tracing must not change.
    fp: u64,
}

/// One drained round.
struct Round {
    latency_s: f64,
    served: Vec<Served>,
    accounted: bool,
    breaker_trips: usize,
}

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        max_attempts: MAX_ATTEMPTS,
        breaker: BREAKER,
        base_seed: seed,
        ..ServiceConfig::default()
    }
}

fn attempt_ctx(profile: &EnergyProfile, spec: &AttemptSpec) -> FaultInjector<QcsContext> {
    let mut ctx = QcsContext::with_profile(profile.clone());
    ctx.set_level(spec.level);
    FaultInjector::new(ctx, FAULT_RATE, FAULT_BITS, spec.seed)
        .striking_only(&[AccuracyLevel::Level1, AccuracyLevel::Level2])
}

fn attempt_strategy(spec: &AttemptSpec) -> Box<dyn ReconfigStrategy> {
    Box::new(SingleMode::new(spec.level))
}

/// The closed loop: [`CLIENTS`] requests per round, `rounds` rounds or
/// until `seconds` pass (whichever is later). `method` builds the
/// method of pool entry `i` around a step counter. Each drained round
/// goes to `consume` with its wall clock.
fn drive<M>(
    p: &Prepared,
    exec: Executor,
    seconds: f64,
    rounds: usize,
    method: impl Fn(usize, Arc<AtomicUsize>) -> M,
    traced: bool,
    mut consume: impl FnMut(Round),
) where
    M: IterativeMethod<State = CgState> + Sync,
{
    let mut service = SolverService::new(service_config(p.seed));
    let mut next = 0usize;
    let mut done = 0usize;
    let start = std::time::Instant::now();
    while done < rounds || start.elapsed().as_secs_f64() < seconds {
        let mut jobs = Vec::with_capacity(CLIENTS);
        let (latency_s, (ids, report)) = timed(|| {
            let mut ids = Vec::with_capacity(CLIENTS);
            for _ in 0..CLIENTS {
                let i = next % POOL;
                next += 1;
                let job = &p.pool[i];
                let steps = Arc::new(AtomicUsize::new(0));
                let mut request = Request::new(method(i, Arc::clone(&steps)))
                    .at_level(job.level)
                    .with_quality_floor(0.0);
                if let Some(deadline) = job.deadline {
                    request = request.with_deadline(deadline);
                }
                ids.push(service.submit(request).id());
                jobs.push((job, steps));
            }
            let report = if traced {
                let drain = trace::span("service.drain");
                let drain_id = Some(drain.id());
                service.run_with(
                    &exec,
                    |spec| {
                        let attempt =
                            trace::span_under("service.attempt", drain_id, Some(spec.request_id));
                        TracedCtx::for_attempt(attempt_ctx(&p.profile, spec), attempt)
                    },
                    |spec| {
                        Box::new(TracedStrategy(attempt_strategy(spec)))
                            as Box<dyn ReconfigStrategy>
                    },
                )
            } else {
                service.run_with(
                    &exec,
                    |spec| attempt_ctx(&p.profile, spec),
                    attempt_strategy,
                )
            };
            (ids, report)
        });
        consume(summarize(latency_s, &ids, &report, &jobs, traced));
        done += 1;
    }
}

/// The untraced method of pool entry `i`.
fn plain(p: &Prepared) -> impl Fn(usize, Arc<AtomicUsize>) -> Counted + '_ {
    |i, steps| Counted {
        cg: p.pool[i].cg.clone(),
        steps,
    }
}

/// Drive a fixed number of rounds and keep them all (for the traced
/// run's bit-identity comparison).
fn block<M>(
    p: &Prepared,
    exec: Executor,
    rounds: usize,
    method: impl Fn(usize, Arc<AtomicUsize>) -> M,
    traced: bool,
) -> Vec<Round>
where
    M: IterativeMethod<State = CgState> + Sync,
{
    let mut out = Vec::with_capacity(rounds);
    drive(p, exec, 0.0, rounds, method, traced, |r| out.push(r));
    out
}

fn summarize(
    latency_s: f64,
    ids: &[u64],
    report: &ServiceReport<CgState>,
    jobs: &[(&Job, Arc<AtomicUsize>)],
    keep_reports: bool,
) -> Round {
    let served = report
        .requests
        .iter()
        .zip(jobs)
        .map(|(r, (job, steps))| {
            let t = &r.telemetry;
            let floor_ok = t
                .report
                .as_ref()
                .is_some_and(|rep| rep.final_objective.is_finite() && rep.final_objective <= 0.0);
            let delivered = matches!(t.outcome, RunVerdict::Completed | RunVerdict::Degraded);
            let rel_err = r.state.as_ref().map_or(f64::INFINITY, |s| {
                vector::dist2_exact(&s.x, &job.exact) / vector::norm2_exact(&job.exact)
            });
            let mut fp: Vec<u64> = r
                .state
                .as_ref()
                .map(|s| s.x.iter().map(|v| v.to_bits()).collect())
                .unwrap_or_default();
            let energy = t.report.as_ref().map_or(0.0, |rep| rep.approx_energy);
            fp.extend([t.attempts as u64, t.reroutes as u64, energy.to_bits()]);
            if let Some(rep) = &t.report {
                fp.extend(super::fingerprint(rep, &[]));
            }
            Served {
                delivered,
                floor_ok: floor_ok && rel_err.is_finite(),
                verdict: t.outcome,
                attempts: t.attempts,
                reroutes: t.reroutes,
                iterations: steps.load(Ordering::Relaxed),
                rel_err,
                energy,
                report: if keep_reports {
                    t.report.clone().map(Box::new)
                } else {
                    None
                },
                fp: super::hash(&fp),
            }
        })
        .collect();
    Round {
        latency_s,
        served,
        accounted: report.accounts_for(ids),
        breaker_trips: report.breaker.trips,
    }
}

pub fn run(env: &Env, traced: bool) -> Outcome {
    let exec = env.exec;
    let mut checks = Checks::default();
    if traced {
        return run_traced(env, checks);
    }
    let (mut set_up, p) = Setup::start(|| setup(env.seed));
    // The exact per-request metrics come from the first pass over the
    // pool, so they do not depend on how many rounds fit in the run. It
    // has enough rounds for p95 of latency, and enough requests that p99
    // of the per-request iterations has ten samples beyond it.
    let prefix = POOL_ROUNDS;
    let mut latency_s = Vec::new();
    let mut delivered_per_round = Vec::new();
    let mut exact: Vec<Served> = Vec::with_capacity(prefix * CLIENTS);
    let (mut requests, mut delivered, mut broken_floors) = (0u64, 0u64, 0u64);
    let mut all_accounted = true;
    drive(&p, exec, env.seconds, prefix, plain(&p), false, |round| {
        let served = round.served.iter().filter(|s| s.delivered).count() as u64;
        latency_s.push(round.latency_s);
        delivered_per_round.push(served);
        all_accounted &= round.accounted;
        requests += round.served.len() as u64;
        delivered += served;
        broken_floors += round
            .served
            .iter()
            .filter(|s| s.delivered && !s.floor_ok)
            .count() as u64;
        if latency_s.len() <= prefix {
            exact.extend(round.served);
        }
        set_up.between();
    });

    // A request the service could not serve is a failed operation, which
    // `failed` counts; a delivered result that breaks its floor, or a
    // lost submission, is a wrong output. The operations are the
    // requests of the first pass over the pool, like the exact metrics,
    // so the tally is a function of the seed alone and not of how many
    // rounds fit in the run.
    checks.failures_expected = true;
    for s in &exact {
        checks.operation(s.delivered);
    }
    let rounds = latency_s.len();
    checks.check(
        "every submission is accounted for",
        all_accounted,
        format!("{rounds} rounds of {CLIENTS} requests"),
    );
    checks.check(
        "every delivered result holds its quality floor",
        broken_floors == 0,
        format!("{broken_floors} of {delivered} delivered results break it"),
    );
    checks.check(
        "p95 latency and p99 iterations have ten samples beyond them",
        tail_percentile(rounds) >= Some(95.0) && tail_percentile(exact.len()) >= Some(99.0),
        format!(
            "{rounds} rounds, {} requests in the exact prefix",
            exact.len()
        ),
    );
    let latency_ms: Vec<f64> = latency_s.iter().map(|l| l * 1e3).collect();
    let iterations: Vec<f64> = exact.iter().map(|s| s.iterations as f64).collect();
    let rel_err: Vec<f64> = exact
        .iter()
        .filter(|s| s.delivered)
        .map(|s| s.rel_err)
        .collect();
    let extra = vec![
        Metric::new(
            "solves_per_s",
            "1/s",
            Better::Higher,
            latency_s
                .iter()
                .zip(&delivered_per_round)
                .map(|(l, &d)| d as f64 / l)
                .collect(),
        ),
        Metric::one(
            "latency_p50_ms",
            "ms",
            Better::Lower,
            percentile(&latency_ms, 50.0),
        ),
        Metric::one(
            "latency_p95_ms",
            "ms",
            Better::Lower,
            percentile(&latency_ms, 95.0),
        ),
        Metric::one(
            "iterations",
            "count",
            Better::Lower,
            iterations.iter().sum::<f64>() / iterations.len() as f64,
        ),
        Metric::one(
            "req_iters_p50",
            "count",
            Better::Lower,
            percentile(&iterations, 50.0),
        ),
        Metric::one(
            "req_iters_p99",
            "count",
            Better::Lower,
            percentile(&iterations, 99.0),
        ),
        Metric::one(
            "failed_frac",
            "1",
            Better::Lower,
            checks.failed as f64 / checks.attempted as f64,
        ),
        Metric::one("clients", "count", Better::Higher, CLIENTS as f64),
        Metric::one("requests", "count", Better::Higher, requests as f64),
    ];
    let e2e = EndToEnd {
        unit_s: latency_s,
        setup_s: set_up.times,
        energy: exact.iter().map(|s| s.energy).sum::<f64>() / exact.len() as f64,
        quality_err: rel_err.iter().sum::<f64>() / rel_err.len() as f64,
    };
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
    // The traced twin of every pool entry: the same system behind the
    // operator decorator.
    let traced_pool: Vec<ConjugateGradient<TracedOp<Matrix>>> = p
        .pool
        .iter()
        .map(|job| {
            ConjugateGradient::new(
                TracedOp(job.cg.operator().clone()),
                job.cg.rhs().to_vec(),
                TOLERANCE,
                MAX_ITERATIONS,
            )
        })
        .collect();
    // One unit is a fresh service driven for enough rounds that p95 of
    // the attempt spans has ten samples beyond it.
    let rounds = samples_for(95.0);
    let blocks = paired(
        env.seconds,
        &["service.attempt"],
        || block(&p, exec, rounds, plain(&p), false),
        || {
            block(
                &p,
                exec,
                rounds,
                |i, steps| {
                    TracedMethod(Counted {
                        cg: traced_pool[i].clone(),
                        steps,
                    })
                },
                true,
            )
        },
    );
    let identical = blocks.identical(|rounds| {
        let fps: Vec<u64> = rounds
            .iter()
            .flat_map(|r| &r.served)
            .map(|s| s.fp)
            .collect();
        let trips: Vec<usize> = rounds.iter().map(|r| r.breaker_trips).collect();
        (fps, trips)
    });
    let traced: Vec<&Round> = blocks.traced.iter().flat_map(|(_, r)| r).collect();
    let served: Vec<&Served> = traced.iter().flat_map(|r| &r.served).collect();
    checks.check(
        "traced closed loops are bit-identical to the untraced ones",
        identical,
        format!(
            "states, attempts, energy, level schedules of {} requests",
            served.len()
        ),
    );
    // Every block replays the same requests from a fresh service, so the
    // first traced block's requests are the operations: the tally is a
    // function of the seed alone and not of how many blocks fit in the run.
    checks.failures_expected = true;
    let first_block = blocks.traced.first().map_or(&[][..], |(_, r)| &r[..]);
    for s in first_block.iter().flat_map(|r| &r.served) {
        checks.operation(s.delivered);
    }
    checks.check(
        "every delivered result holds its quality floor",
        served.iter().all(|s| !s.delivered || s.floor_ok),
        format!("{} requests", served.len()),
    );

    let units = traced.len() as f64;
    let attempts: usize = served.iter().map(|s| s.attempts).sum();
    let executed = served.iter().filter(|s| s.attempts > 0).count();
    let delivered = served.iter().filter(|s| s.delivered).count();
    let count = |f: &dyn Fn(&Served) -> bool| served.iter().filter(|s| f(s)).count() as f64 / units;
    let mut extras = Extras::default();
    let reports: Vec<&approxit::RunReport> =
        served.iter().filter_map(|s| s.report.as_deref()).collect();
    super::add_op_counts(&mut extras, &reports, units);
    extras.set("service.attempts", attempts as f64 / units);
    extras.set("service.retries", (attempts - executed) as f64 / units);
    extras.set(
        "service.reroutes",
        served.iter().map(|s| s.reroutes).sum::<usize>() as f64 / units,
    );
    // Breaker telemetry is cumulative over one service's drains.
    let trips: usize = blocks
        .traced
        .iter()
        .map(|(_, rounds)| rounds.last().map_or(0, |r| r.breaker_trips))
        .sum();
    extras.set("service.breaker_trips", trips as f64 / units);
    extras.set("service.shed", count(&|s| s.verdict == RunVerdict::Shed));
    extras.set(
        "service.degraded",
        count(&|s| s.verdict == RunVerdict::Degraded),
    );
    extras.set(
        "service.useful_attempt_ratio",
        delivered as f64 / attempts.max(1) as f64,
    );
    extras.set(
        "convert.ns_per_elem",
        convert_ns_per_elem(QFormat::Q15_16, SIZES[SIZES.len() - 1]),
    );
    extras.set("parx.threads", exec.threads() as f64);
    extras.set("trace.overhead_frac", blocks.overhead());
    Outcome {
        metrics: layers::collect(&blocks.trace, units, exec.threads(), &extras),
        extra: Vec::new(),
        checks,
        trace: Some(blocks.trace),
    }
}
