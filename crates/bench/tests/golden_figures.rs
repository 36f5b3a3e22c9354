//! The paper's figures and tables, pinned byte for byte.
//!
//! Runs `all_experiments` and compares its standard output with
//! `golden_figures.txt`. Every number it prints comes from the cost model,
//! the baselines or a seeded functional run, so the text is the same on
//! every host and in debug and release builds. A change that moves a
//! figure on purpose re-records the file in a commit of its own that says
//! why:
//!
//! ```text
//! cargo run -p bd-bench --bin all_experiments > crates/bench/tests/golden_figures.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden_figures.txt");

/// The `## <figure>` banner line at or above line `index` of `text`.
fn section_of(text: &str, index: usize) -> &str {
    text.lines()
        .take(index + 1)
        .filter(|line| line.starts_with("## "))
        .last()
        .unwrap_or("(before the first figure)")
}

#[test]
fn all_experiments_prints_the_recorded_figures() {
    let exe = env!("CARGO_BIN_EXE_all_experiments");
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{exe}: {e}"));
    assert!(
        out.status.success(),
        "all_experiments exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8_lossy(&out.stdout);
    if got == GOLDEN {
        return;
    }
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.split('\n').collect(), GOLDEN.split('\n').collect());
    let first = got_lines
        .iter()
        .zip(&want_lines)
        .position(|(g, w)| g != w)
        .unwrap_or(got_lines.len().min(want_lines.len()));
    panic!(
        "all_experiments output differs from golden_figures.txt at line {} ({}):\n  \
         recorded: {:?}\n  printed:  {:?}\n({} lines printed, {} recorded)",
        first + 1,
        section_of(GOLDEN, first),
        want_lines.get(first).copied().unwrap_or("<end of output>"),
        got_lines.get(first).copied().unwrap_or("<end of output>"),
        got_lines.len(),
        want_lines.len(),
    );
}
