//! The paper's figures and tables, one module each, run in paper order by
//! [`run_figures`].

use std::error::Error;
use std::process::ExitCode;

/// A reproduction: prints its rows and series to stdout.
type Figure = fn() -> Result<(), Box<dyn Error>>;

/// Declares one module per reproduction, each with a `run` [`Figure`],
/// and `FIGURES`: their names and entry points, in the order given.
macro_rules! figures {
    ($($name:ident),* $(,)?) => {
        $(mod $name;)*

        const FIGURES: &[(&str, Figure)] = &[$((stringify!($name), $name::run)),*];
    };
}

// Paper order.
figures!(
    fig02_taxonomy,
    fig04_stalls,
    fig08_blackwell,
    fig09_hopper,
    fig10_ada,
    fig11_ampere,
    fig12_e2e_kivi,
    fig13_e2e_qserve,
    fig14_residual,
    fig15_dequant,
    fig16_breakdown,
    tab1_acc_tradeoff,
    tab2_quant_overhead,
    tab3_coop_softmax,
    ext_rotation_nvfp4,
);

/// Runs the named figure and table reproductions in the order given, or
/// all of them in paper order when `names` is empty, each under a `##`
/// banner. The exit code is 1 if any of them fails, and 2, with nothing
/// run, if a name is not one of them.
pub fn run_figures(names: &[String]) -> ExitCode {
    let mut selected = Vec::with_capacity(FIGURES.len());
    for name in names {
        match FIGURES.iter().find(|(known, _)| known == name) {
            Some(&figure) => selected.push(figure),
            None => {
                eprintln!("unknown experiment `{name}`; the experiments are:");
                for (known, _) in FIGURES {
                    eprintln!("  {known}");
                }
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected.extend_from_slice(FIGURES);
    }
    let mut failures = Vec::new();
    for (name, figure) in &selected {
        println!();
        println!("##################################################################");
        println!("## {name}");
        println!("##################################################################");
        // A panicking figure fails alone; the others still run.
        match std::panic::catch_unwind(figure) {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => eprintln!("{name} failed: {e}"),
            Err(_) => eprintln!("{name} panicked"),
        }
        failures.push(*name);
    }
    if !failures.is_empty() {
        eprintln!("\nfailed experiments: {failures:?}");
        return ExitCode::FAILURE;
    }
    println!("\nAll {} experiments completed.", selected.len());
    ExitCode::SUCCESS
}
