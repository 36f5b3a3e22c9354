//! Runs the paper's figure and table reproductions and exits non-zero if
//! any of them fails. With no arguments it runs all of them in paper
//! order; figure names as arguments (`all_experiments fig10_ada`) select
//! those, and an unknown name prints the list and exits 2.

use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    bd_bench::run_figures(&names)
}
