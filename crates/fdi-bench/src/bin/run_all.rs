//! Runs the paper's experiments (the index is in
//! `fdi_bench::experiments`).
//!
//! Usage: `run_all [--quick] [name…]`. Each name is an experiment
//! module (`chase_scaling`, `updates`, …) and runs in the order given;
//! no name runs the whole battery in id order. `--quick` shrinks the
//! sweeps for a smoke run. An unknown name is a usage error (exit 2).
use fdi_bench::experiments::ALL;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--quick");
    let quick = !flags.is_empty();
    let mut runs = Vec::new();
    for name in &names {
        match ALL.iter().find(|(known, _)| known == name) {
            Some(&(_, run)) => runs.push(run),
            None => {
                let known: Vec<&str> = ALL.iter().map(|(known, _)| *known).collect();
                eprintln!("unknown experiment {name:?}; known: {}", known.join(", "));
                eprintln!("usage: run_all [--quick] [name…]");
                return ExitCode::from(2);
            }
        }
    }
    if names.is_empty() {
        runs = ALL.iter().map(|&(_, run)| run).collect();
    }
    for run in runs {
        run(quick);
    }
    ExitCode::SUCCESS
}
