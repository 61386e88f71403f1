//! Runs the whole experiment battery in id order (the index is in
//! `fdi_bench::experiments`).
//! Pass `--quick` for a fast smoke run.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    fdi_bench::experiments::run_all(quick);
}
