//! Runs every figure and table reproduction in paper order and exits
//! non-zero if any of them fails. The tables go to stdout; nothing in the
//! repository records them.

use std::process::Command;

fn main() {
    let bins = [
        "fig02_taxonomy",
        "fig04_stalls",
        "fig08_blackwell",
        "fig09_hopper",
        "fig10_ada",
        "fig11_ampere",
        "fig12_e2e_kivi",
        "fig13_e2e_qserve",
        "fig14_residual",
        "fig15_dequant",
        "fig16_breakdown",
        "tab1_acc_tradeoff",
        "tab2_quant_overhead",
        "tab3_coop_softmax",
        "ext_rotation_nvfp4",
        "ext_serving_trace",
    ];
    // Invoke in-process when possible? Each bin is its own crate target;
    // shell out to the sibling binaries that cargo placed next to us.
    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("target dir");
    let mut failures = Vec::new();
    for bin in bins {
        let path = dir.join(bin);
        println!();
        println!("##################################################################");
        println!("## {bin}");
        println!("##################################################################");
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failures.push(bin);
            }
            Err(e) => {
                eprintln!("failed to launch {}: {e}", path.display());
                failures.push(bin);
            }
        }
    }
    if !failures.is_empty() {
        eprintln!("\nfailed experiments: {failures:?}");
        std::process::exit(1);
    }
    println!("\nAll {} experiments completed.", bins.len());
}
