//! Solving a Poisson boundary-value problem on the approximate datapath
//! — the PDE workload the paper's introduction motivates ("the
//! iterative-based finite difference … methods … to tackle partial
//! differential equations").
//!
//! ```sh
//! cargo run -p approxit --example poisson --release
//! ```
//!
//! Exits non-zero if the Truth run does not converge within its sweep
//! budget, or misses the analytic solution by more than the 5-point
//! stencil's discretization error allows.

use std::process::ExitCode;

use approxit::prelude::*;
use iter_solvers::datasets::{sine_solution, PoissonSource};
use iter_solvers::{ConjugateGradient, Jacobi};

/// Largest acceptable max error of Truth against the analytic solution
/// on the 23×23 grid (the discretization error there is about 1.1e-2).
const MAX_TRUTH_ERROR: f64 = 0.05;

/// Render the field as an ASCII heatmap.
fn heatmap(u: &[f64], n: usize) -> String {
    const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let max = u.iter().fold(1e-12f64, |m, &v| m.max(v.abs()));
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let t = (u[i * n + j].abs() / max * 9.0).round() as usize;
                    SHADES[t.min(9)]
                })
                .collect::<String>()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() -> ExitCode {
    let n = 23;
    // −Δu = f on the unit square, as the 5-point system A·u = h²·f. The
    // stopping tolerance sits above the Q15.16 quantum: accurate sweeps end
    // in a period-2 cycle whose nodes move by up to 4 ulps (about 6e-5).
    let b = PoissonSource::Sine { amplitude: 8.0 }.rhs(n);
    let pde = Jacobi::new(CsrMatrix::poisson5(n, n), b.clone(), 0.9, 1e-4, 5000);
    let profile = EnergyProfile::paper_default();
    let table = characterize(&pde, &profile, 5);
    let mut ctx = QcsContext::with_profile(profile);

    let truth = RunConfig::new(&pde, &mut ctx).execute(&mut SingleMode::accurate());
    println!(
        "Truth: {} Jacobi sweeps on a {n}x{n} grid (converged: {})",
        truth.report.iterations, truth.report.converged
    );
    println!("{}\n", heatmap(&truth.state, n));

    // Level 1's truncation quantum exceeds the field scale entirely: the
    // field never leaves zero (the PDE analogue of the paper's broken
    // level-1 clustering).
    let broken =
        RunConfig::new(&pde, &mut ctx).execute(&mut SingleMode::new(AccuracyLevel::Level1));
    println!(
        "level1 single mode: froze after {} sweeps, field peak {:.3}:",
        broken.report.iterations,
        broken.state.iter().cloned().fold(0.0f64, f64::max),
    );
    println!("{}\n", heatmap(&broken.state, n));

    // ApproxIt recovers the field at reduced energy.
    let mut strategy = AdaptiveAngleStrategy::from_characterization(&table, 1);
    let scaled = RunConfig::new(&pde, &mut ctx).execute(&mut strategy);
    let deviation = scaled
        .state
        .iter()
        .zip(&truth.state)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "ApproxIt adaptive: {} sweeps (steps {:?}), max deviation from Truth {:.2e}, energy {:.1}%",
        scaled.report.iterations,
        scaled.report.steps_per_level,
        deviation,
        100.0 * scaled.report.normalized_energy(&truth.report),
    );
    println!("{}", heatmap(&scaled.state, n));

    // Report against the analytic solution too.
    let analytic = sine_solution(n, 8.0);
    let disc_err = truth
        .state
        .iter()
        .zip(&analytic)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\n(discretization error of Truth vs analytic solution: {disc_err:.3})");

    // The same system through CG: any LinearOperator plugs into any
    // operator solver and the same controller.
    let cg = ConjugateGradient::new(CsrMatrix::poisson5(n, n), b, 1e-10, 400);
    let sparse = RunConfig::new(&cg, &mut ctx).execute(&mut SingleMode::accurate());
    let cg_dev = sparse
        .state
        .x
        .iter()
        .zip(&truth.state)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "sparse CG on the CsrMatrix stencil: {} iterations, max deviation from Jacobi Truth {:.2e}",
        sparse.report.iterations, cg_dev
    );

    if !truth.report.converged {
        eprintln!(
            "Truth did not converge within {} sweeps",
            truth.report.iterations
        );
        return ExitCode::FAILURE;
    }
    if disc_err > MAX_TRUTH_ERROR {
        eprintln!("Truth misses the analytic solution by {disc_err:.3} > {MAX_TRUTH_ERROR}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
