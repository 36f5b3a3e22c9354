//! The `bitdecoding` CLI rejects counts a user types that describe no
//! workload: it prints its usage and exits 2 instead of panicking or
//! pricing an empty step.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let exe = env!("CARGO_BIN_EXE_bitdecoding");
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{exe}: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_and_indivisible_counts_print_usage_and_exit_2() {
    let (code, _) = run(&["price", "a100", "kc4", "32", "8", "128", "1024", "8"]);
    assert_eq!(code, Some(0), "a valid workload prices");
    for args in [
        &["price", "a100", "kc4", "32", "7", "128", "1024"][..],
        &["price", "a100", "kc4", "0", "0", "128", "1024"],
        &["price", "a100", "kc4", "0", "8", "128", "1024"],
        &["price", "a100", "kc4", "32", "8", "0", "1024"],
        &["price", "a100", "kc4", "32", "8", "128", "0"],
        &["price", "a100", "kc4", "32", "8", "128", "1024", "0"],
        &["serve", "a100", "kc4", "0"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    }
}
