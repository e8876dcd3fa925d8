//! The ApproxIt benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <poisson-100k|paper-tables|service-mix|adder-sweep|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run prints its output checks and a metric table (median,
//! quartiles and sample count of every metric), writes the same with
//! the machine context to `benchmark/out/`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones. The exit code is 0 only if every output check passed.
//! `--workload all` runs every workload in its own process, one after
//! the other.

mod decor;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use parx::Executor;

use stats::{Better, Metric};
use workloads::{Env, Outcome};

const WORKLOADS: [&str; 4] = ["poisson-100k", "paper-tables", "service-mix", "adder-sweep"];

/// Where results and spans are written, relative to the repository root.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.expect("VmHWM is readable from /proc/self/status") / 1024.0
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// Machine context recorded with every result.
fn context_json(args: &Args, exec: Executor) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let env_threads = std::env::var(parx::THREADS_ENV).unwrap_or_default();
    format!(
        "{{\"nproc\":{nproc},\"APPROXIT_THREADS\":\"{env_threads}\",\"executor_threads\":{},\
         \"profile\":\"{}\",\"commit\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        exec.threads(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn run_one(args: &Args) -> ExitCode {
    // `paper-tables` runs its kernels on one thread. `parx` spawns and
    // joins its workers on every kernel call above the parallel gate,
    // and the paper's short vectors make many such calls: on a 2-vCPU
    // machine a pass took up to 35% longer at two threads than at one, and
    // its time swung by up to 2× between runs as the host got busier.
    let exec = match args.workload.as_str() {
        "paper-tables" => Executor::with_threads(1),
        _ => Executor::new(),
    };
    let env = Env {
        exec,
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        exec.threads()
    );
    let run = match args.workload.as_str() {
        "poisson-100k" => workloads::poisson::run,
        "paper-tables" => workloads::paper::run,
        "service-mix" => workloads::service::run,
        _ => workloads::adder::run,
    };
    let Outcome {
        mut metrics,
        extra,
        checks,
        trace,
    } = run(&env, args.trace);
    if !args.trace {
        metrics.push(Metric::one(
            "peak_rss_mb",
            "MB",
            Better::Lower,
            peak_rss_mb(),
        ));
    }

    for c in &checks.list {
        let verdict = if c.ok { "PASS" } else { "FAIL" };
        println!("check {verdict} {} ({})", c.name, c.detail);
    }
    println!("metrics (name, median, unit, better, quartiles, samples):");
    for m in metrics.iter().chain(&extra) {
        println!("{}", m.table_row());
    }

    let correct = checks.all_ok();
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let checks_json = |list: &[workloads::Check]| {
        let items: Vec<String> = list
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{:?},\"ok\":{},\"detail\":{:?}}}",
                    c.name, c.ok, c.detail
                )
            })
            .collect();
        items.join(",")
    };
    let record = format!(
        "{{\"workload\":\"{}\",\"context\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\
         \"checks\":[{}],\"metrics\":{},\"extra\":{}}}\n",
        args.workload,
        context_json(args, exec),
        checks.attempted,
        checks.failed,
        checks_json(&checks.list),
        stats::summaries_json(&metrics),
        stats::summaries_json(&extra),
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), record))
        .and_then(|()| match &trace {
            Some(t) => std::fs::write(format!("{stem}.spans.jsonl"), t.spans_jsonl()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("could not write results under {OUT_DIR}: {e}");
    }
    if let Some(t) = &trace {
        println!(
            "spans: {} kept, {} dropped, written to {stem}.spans.jsonl",
            t.spans.len(),
            t.dropped_spans
        );
    }

    println!(
        "{}",
        stats::result_line(correct, checks.attempted, checks.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in its own process, so each reports its own peak
/// memory; fails if any does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics the
    /// benchmark prints, less `poisson-100k`, whose output check fails
    /// on most seeds (see the README).
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let mut listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let e2e = workloads::EndToEnd {
            unit_s: vec![1.0],
            setup_s: vec![1.0],
            energy: 1.0,
            quality_err: 1.0,
        }
        .metrics();
        let mut printed: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .filter(|&w| w != "poisson-100k")
            .chain(e2e.iter().map(|m| m.name))
            .chain(["peak_rss_mb"])
            .chain(layers::PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        listed.sort_unstable();
        printed.sort_unstable();
        assert_eq!(listed, printed);
    }
}
