//! Structural guards on the workspace's source tree.
//!
//! A guard that holds a number is a test that prints it.

use std::fs;
use std::path::Path;

/// The most `pub` item lines each crate's `src/` may hold. A line counts
/// when, after its indentation, it starts `pub fn`, `pub struct`,
/// `pub enum`, `pub trait`, `pub const`, `pub type`, `pub mod` or
/// `pub static` (`pub(crate)` does not count). A ceiling only goes down:
/// an item that nothing outside its crate names is `pub(crate)`, and a
/// change that shrinks a crate's surface lowers its number here. A crate
/// that goes takes its row with it.
const PUB_ITEM_CEILINGS: [(&str, usize); 7] = [
    ("bench", 42),
    ("core", 84),
    ("gpu-sim", 114),
    ("kvcache", 207),
    ("lowbit", 116),
    ("obs", 83),
    ("serve", 73),
];

const PUB_ITEM_KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "const", "type", "mod", "static",
];

fn is_pub_item(line: &str) -> bool {
    line.trim_start().strip_prefix("pub ").is_some_and(|rest| {
        PUB_ITEM_KINDS.iter().any(|kind| {
            rest.strip_prefix(kind)
                .is_some_and(|after| !after.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
        })
    })
}

fn count_pub_items(dir: &Path) -> usize {
    let mut count = 0;
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .path();
        if path.is_dir() {
            count += count_pub_items(&path);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text =
                fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            count += text.lines().filter(|line| is_pub_item(line)).count();
        }
    }
    count
}

/// Per-crate public-item counts stay at or under their ceilings, every
/// crate under `crates/` has one, and every ceiling names a crate there.
#[test]
fn public_surface_does_not_grow() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut names: Vec<String> = fs::read_dir(&crates)
        .unwrap_or_else(|e| panic!("{}: {e}", crates.display()))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if !path.join("src").is_dir() {
                return None;
            }
            Some(path.file_name()?.to_str()?.to_owned())
        })
        .collect();
    names.sort();
    let mut over = Vec::new();
    println!("{:<10} {:>5} {:>8}", "crate", "pub", "ceiling");
    for name in &names {
        let count = count_pub_items(&crates.join(name).join("src"));
        let ceiling = PUB_ITEM_CEILINGS
            .iter()
            .find(|(crate_name, _)| crate_name == name)
            .map(|&(_, ceiling)| ceiling);
        match ceiling {
            Some(ceiling) => {
                println!("{name:<10} {count:>5} {ceiling:>8}");
                if count > ceiling {
                    over.push(format!("{name}: {count} pub items, ceiling {ceiling}"));
                } else if count < ceiling {
                    println!(
                        "  {name} is {} under its ceiling: lower it",
                        ceiling - count
                    );
                }
            }
            None => over.push(format!("{name}: {count} pub items and no recorded ceiling")),
        }
    }
    for (name, _) in PUB_ITEM_CEILINGS {
        if !names.iter().any(|crate_name| crate_name == name) {
            over.push(format!(
                "{name}: a ceiling for a crate that is not under crates/"
            ));
        }
    }
    assert!(
        over.is_empty(),
        "public surface over its ceilings, or a ceiling with no crate:\n{}",
        over.join("\n")
    );
}
