//! Declarative device profiles: the zero-dependency text format behind
//! [`GpuArch`].
//!
//! New hardware should be a data file, not a code fork. A `.devspec` file
//! is a flat list of `key = value` lines inside a `[device]` section —
//! simple enough to parse in-crate (the offline `vendor/` tree has no
//! serde) and expressive enough to carry every [`GpuArch`] field:
//!
//! ```text
//! # NVIDIA A100 SXM4 80 GB
//! [device]
//! name = A100
//! gen = ampere
//! sms = 108
//! clock_ghz = 1.41
//! ...
//! ```
//!
//! The five evaluation GPUs ship as `profiles/*.devspec` files embedded
//! via `include_str!`; the legacy constructors (`GpuArch::a100()`, …)
//! delegate to the parser, so a profile edit is the single source of
//! truth. Parsing is strict — every field required, unknown keys and
//! duplicate keys rejected — and every failure is a typed [`SpecError`]
//! carrying the offending line.
//!
//! The same low-level scanner (`scan_sections`) backs the `.topo`
//! fleet format in [`crate::topology`].

use crate::arch::{ArchGen, GpuArch};
use std::fmt;

/// A typed spec-parse failure. Every variant that points at file content
/// carries the 1-based line number, so error messages stay actionable
/// without a parser backtrace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A non-comment line is neither a `[section]` header nor a
    /// `key = value` entry.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// The offending line text.
        text: String,
    },
    /// A section header names a section this format does not define.
    UnknownSection {
        /// 1-based line number.
        line: usize,
        /// The unrecognized section name.
        section: String,
    },
    /// A `key = value` entry uses a key the enclosing section does not
    /// define.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unrecognized key.
        key: String,
    },
    /// The same key appears twice in one section.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A value failed to parse or violates the key's validity constraint.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value is bad.
        key: String,
        /// The rejected value text.
        value: String,
        /// What the key expects (a type or a constraint).
        expected: &'static str,
    },
    /// A required key is absent from its section.
    MissingKey {
        /// The section the key belongs to.
        section: String,
        /// The missing key.
        key: String,
    },
    /// A required section is absent from the document.
    MissingSection {
        /// The missing section name.
        section: String,
    },
    /// A value names another entity (a link, a device profile) that the
    /// document or registry does not define.
    UnknownReference {
        /// 1-based line number (0 when the reference is resolved after
        /// parsing, e.g. a device profile looked up at fleet build time).
        line: usize,
        /// The dangling name.
        name: String,
        /// What kind of entity was expected.
        kind: &'static str,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax { line, text } => {
                write!(
                    f,
                    "line {line}: expected `[section]` or `key = value`, got {text:?}"
                )
            }
            SpecError::UnknownSection { line, section } => {
                write!(f, "line {line}: unknown section [{section}]")
            }
            SpecError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key {key:?}")
            }
            SpecError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key {key:?}")
            }
            SpecError::BadValue {
                line,
                key,
                value,
                expected,
            } => write!(f, "line {line}: {key} = {value:?} is not {expected}"),
            SpecError::MissingKey { section, key } => {
                write!(f, "section [{section}] is missing required key {key:?}")
            }
            SpecError::MissingSection { section } => {
                write!(f, "missing required section [{section}]")
            }
            SpecError::UnknownReference { line, name, kind } => {
                if *line == 0 {
                    write!(f, "unknown {kind} {name:?}")
                } else {
                    write!(f, "line {line}: unknown {kind} {name:?}")
                }
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// One `[header]`-delimited section of a spec document: its name, an
/// optional argument (`[link nvlink]` → name `link`, arg `nvlink`), and
/// the `key = value` entries it encloses, each with its line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecSection {
    /// The section name (the first word inside the brackets).
    pub name: String,
    /// The section argument (the rest of the header), empty when absent.
    pub arg: String,
    /// 1-based line number of the header.
    pub line: usize,
    /// `(line, key, value)` entries in file order.
    pub entries: Vec<(usize, String, String)>,
}

impl SpecSection {
    /// Looks up a key's `(line, value)`, rejecting duplicates.
    pub(crate) fn get(&self, key: &str) -> Result<Option<(usize, &str)>, SpecError> {
        let mut found: Option<(usize, &str)> = None;
        for (line, k, v) in &self.entries {
            if k == key {
                if found.is_some() {
                    return Err(SpecError::DuplicateKey {
                        line: *line,
                        key: key.to_string(),
                    });
                }
                found = Some((*line, v));
            }
        }
        Ok(found)
    }

    /// Looks up a required key's `(line, value)`.
    pub(crate) fn require(&self, key: &str) -> Result<(usize, &str), SpecError> {
        self.get(key)?.ok_or_else(|| SpecError::MissingKey {
            section: self.name.clone(),
            key: key.to_string(),
        })
    }

    /// Rejects any entry whose key is not in `allowed`.
    pub(crate) fn check_keys(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (line, k, _) in &self.entries {
            if !allowed.contains(&k.as_str()) {
                return Err(SpecError::UnknownKey {
                    line: *line,
                    key: k.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Splits a spec document into sections. Blank lines and `#` comments are
/// skipped; a `key = value` line before any section header is a syntax
/// error. This scanner is shared by the `.devspec` and `.topo` formats.
pub(crate) fn scan_sections(text: &str) -> Result<Vec<SpecSection>, SpecError> {
    let mut sections: Vec<SpecSection> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(inner) = trimmed.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let inner = inner.trim();
            if inner.is_empty() {
                return Err(SpecError::Syntax {
                    line,
                    text: trimmed.to_string(),
                });
            }
            let (name, arg) = match inner.split_once(char::is_whitespace) {
                Some((n, a)) => (n.to_string(), a.trim().to_string()),
                None => (inner.to_string(), String::new()),
            };
            sections.push(SpecSection {
                name,
                arg,
                line,
                entries: Vec::new(),
            });
            continue;
        }
        let Some((key, value)) = trimmed.split_once('=') else {
            return Err(SpecError::Syntax {
                line,
                text: trimmed.to_string(),
            });
        };
        let key = key.trim();
        let value = value.trim();
        if key.is_empty() || value.is_empty() {
            return Err(SpecError::Syntax {
                line,
                text: trimmed.to_string(),
            });
        }
        match sections.last_mut() {
            Some(section) => section
                .entries
                .push((line, key.to_string(), value.to_string())),
            None => {
                return Err(SpecError::Syntax {
                    line,
                    text: trimmed.to_string(),
                });
            }
        }
    }
    Ok(sections)
}

/// Parses a strictly positive finite `f64` value.
pub(crate) fn parse_pos_f64(line: usize, key: &str, value: &str) -> Result<f64, SpecError> {
    match value.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(SpecError::BadValue {
            line,
            key: key.to_string(),
            value: value.to_string(),
            expected: "a positive number",
        }),
    }
}

/// Parses a non-negative finite `f64` value.
fn parse_nonneg_f64(line: usize, key: &str, value: &str) -> Result<f64, SpecError> {
    match value.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(SpecError::BadValue {
            line,
            key: key.to_string(),
            value: value.to_string(),
            expected: "a non-negative number",
        }),
    }
}

/// Parses a positive integer value.
fn parse_pos_u32(line: usize, key: &str, value: &str) -> Result<u32, SpecError> {
    match value.parse::<u32>() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err(SpecError::BadValue {
            line,
            key: key.to_string(),
            value: value.to_string(),
            expected: "a positive integer",
        }),
    }
}

/// The keys a `[device]` section must carry, in canonical render order.
const DEVICE_KEYS: [&str; 16] = [
    "name",
    "gen",
    "sms",
    "clock_ghz",
    "dram_bw_gbs",
    "dram_gb",
    "tc_fp16_tflops",
    "tc_fp8_tflops",
    "tc_fp4_tflops",
    "cuda_fp32_tflops",
    "smem_kb_per_sm",
    "l2_mb",
    "mem_efficiency",
    "launch_overhead_us",
    "warps_to_saturate",
    "cuda_issue_efficiency",
];

/// A parsed, validated device profile — the declarative form of
/// [`GpuArch`]. [`DeviceSpec::parse`] and [`DeviceSpec::to_text`] are
/// mutual inverses (f64 `Display` is shortest-round-trip), which the
/// property tests pin down.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    arch: GpuArch,
}

impl DeviceSpec {
    /// Parses a `.devspec` document: exactly one `[device]` section with
    /// all sixteen keys present.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending line for syntax
    /// errors, unknown/duplicate/missing keys, and out-of-range values
    /// (e.g. `mem_efficiency` outside `(0, 1]`).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let sections = scan_sections(text)?;
        let mut device: Option<&SpecSection> = None;
        for s in &sections {
            match s.name.as_str() {
                "device" if device.is_some() => {
                    return Err(SpecError::UnknownSection {
                        line: s.line,
                        section: "device (duplicate)".to_string(),
                    });
                }
                "device" => device = Some(s),
                other => {
                    return Err(SpecError::UnknownSection {
                        line: s.line,
                        section: other.to_string(),
                    });
                }
            }
        }
        let s = device.ok_or(SpecError::MissingSection {
            section: "device".to_string(),
        })?;
        s.check_keys(&DEVICE_KEYS)?;

        let (_, name) = s.require("name")?;
        let (gline, gen) = s.require("gen")?;
        let gen = match gen.to_ascii_lowercase().as_str() {
            "ampere" => ArchGen::Ampere,
            "ada" => ArchGen::Ada,
            "hopper" => ArchGen::Hopper,
            "blackwell" => ArchGen::Blackwell,
            _ => {
                return Err(SpecError::BadValue {
                    line: gline,
                    key: "gen".to_string(),
                    value: gen.to_string(),
                    expected: "one of ampere, ada, hopper, blackwell",
                });
            }
        };
        let pos = |key: &str| -> Result<f64, SpecError> {
            let (line, v) = s.require(key)?;
            parse_pos_f64(line, key, v)
        };
        let nonneg = |key: &str| -> Result<f64, SpecError> {
            let (line, v) = s.require(key)?;
            parse_nonneg_f64(line, key, v)
        };
        let (sline, sms) = s.require("sms")?;
        let (mline, smem) = s.require("smem_kb_per_sm")?;
        let (eline, eff) = s.require("mem_efficiency")?;
        let mem_efficiency = parse_pos_f64(eline, "mem_efficiency", eff)?;
        if mem_efficiency > 1.0 {
            return Err(SpecError::BadValue {
                line: eline,
                key: "mem_efficiency".to_string(),
                value: eff.to_string(),
                expected: "a fraction in (0, 1]",
            });
        }
        let (iline, issue) = s.require("cuda_issue_efficiency")?;
        let cuda_issue_efficiency = parse_pos_f64(iline, "cuda_issue_efficiency", issue)?;
        if cuda_issue_efficiency > 1.0 {
            return Err(SpecError::BadValue {
                line: iline,
                key: "cuda_issue_efficiency".to_string(),
                value: issue.to_string(),
                expected: "a fraction in (0, 1]",
            });
        }
        let arch = GpuArch {
            name: name.to_string(),
            gen,
            sms: parse_pos_u32(sline, "sms", sms)?,
            clock_ghz: pos("clock_ghz")?,
            dram_bw_gbs: pos("dram_bw_gbs")?,
            dram_gb: pos("dram_gb")?,
            tc_fp16_tflops: pos("tc_fp16_tflops")?,
            tc_fp8_tflops: nonneg("tc_fp8_tflops")?,
            tc_fp4_tflops: nonneg("tc_fp4_tflops")?,
            cuda_fp32_tflops: pos("cuda_fp32_tflops")?,
            smem_kb_per_sm: parse_pos_u32(mline, "smem_kb_per_sm", smem)?,
            l2_mb: pos("l2_mb")?,
            mem_efficiency,
            launch_overhead_us: pos("launch_overhead_us")?,
            warps_to_saturate: pos("warps_to_saturate")?,
            cuda_issue_efficiency,
        };
        Ok(DeviceSpec { arch })
    }

    /// Wraps an existing [`GpuArch`] (the render direction of the
    /// round trip).
    pub fn from_arch(arch: GpuArch) -> Self {
        DeviceSpec { arch }
    }

    /// The parsed architecture.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Unwraps into the [`GpuArch`] the cost model consumes.
    pub(crate) fn into_arch(self) -> GpuArch {
        self.arch
    }

    /// Renders the spec back to `.devspec` text. `parse(to_text(s)) == s`
    /// for every valid spec: Rust's `f64` `Display` prints the shortest
    /// string that parses back to the same bits.
    pub fn to_text(&self) -> String {
        let a = &self.arch;
        let gen = match a.gen {
            ArchGen::Ampere => "ampere",
            ArchGen::Ada => "ada",
            ArchGen::Hopper => "hopper",
            ArchGen::Blackwell => "blackwell",
        };
        format!(
            "[device]\n\
             name = {}\n\
             gen = {}\n\
             sms = {}\n\
             clock_ghz = {}\n\
             dram_bw_gbs = {}\n\
             dram_gb = {}\n\
             tc_fp16_tflops = {}\n\
             tc_fp8_tflops = {}\n\
             tc_fp4_tflops = {}\n\
             cuda_fp32_tflops = {}\n\
             smem_kb_per_sm = {}\n\
             l2_mb = {}\n\
             mem_efficiency = {}\n\
             launch_overhead_us = {}\n\
             warps_to_saturate = {}\n\
             cuda_issue_efficiency = {}\n",
            a.name,
            gen,
            a.sms,
            a.clock_ghz,
            a.dram_bw_gbs,
            a.dram_gb,
            a.tc_fp16_tflops,
            a.tc_fp8_tflops,
            a.tc_fp4_tflops,
            a.cuda_fp32_tflops,
            a.smem_kb_per_sm,
            a.l2_mb,
            a.mem_efficiency,
            a.launch_overhead_us,
            a.warps_to_saturate,
            a.cuda_issue_efficiency,
        )
    }
}

/// Every `.devspec` profile shipped with the crate, as
/// `(profile key, file contents)` pairs. The key is the file stem and is
/// what `.topo` island device lists reference.
pub const BUILTIN_PROFILES: [(&str, &str); 5] = [
    ("a100", include_str!("../profiles/a100.devspec")),
    ("rtx4090", include_str!("../profiles/rtx4090.devspec")),
    ("h100", include_str!("../profiles/h100.devspec")),
    ("rtx5090", include_str!("../profiles/rtx5090.devspec")),
    (
        "rtx_pro6000",
        include_str!("../profiles/rtx_pro6000.devspec"),
    ),
];

/// Looks up a shipped profile by its key (file stem) or device name,
/// case-insensitively, and parses it.
pub fn builtin_device(name: &str) -> Option<GpuArch> {
    let want = name.to_ascii_lowercase();
    for (key, text) in BUILTIN_PROFILES {
        if key.eq_ignore_ascii_case(&want) {
            return Some(parse_embedded(key, text));
        }
    }
    // Fall back to the device's marketing name ("A100", "RTX PRO 6000").
    for (key, text) in BUILTIN_PROFILES {
        let arch = parse_embedded(key, text);
        if arch.name.eq_ignore_ascii_case(&want) {
            return Some(arch);
        }
    }
    None
}

/// Parses an embedded profile, panicking with the profile key on failure —
/// a shipped file that fails to parse is a build defect, not a runtime
/// condition, and the profile-validation test catches it first.
pub(crate) fn parse_embedded(key: &str, text: &str) -> GpuArch {
    match DeviceSpec::parse(text) {
        Ok(spec) => spec.into_arch(),
        Err(e) => panic!("embedded device profile {key:?} is invalid: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trips_the_builtins() {
        for (key, text) in BUILTIN_PROFILES {
            let spec = DeviceSpec::parse(text).unwrap_or_else(|e| panic!("{key}: {e}"));
            let again = DeviceSpec::parse(&spec.to_text()).unwrap();
            assert_eq!(spec, again, "{key} round trip");
        }
    }

    #[test]
    fn missing_key_is_typed() {
        let text = "[device]\nname = X\ngen = ada\n";
        match DeviceSpec::parse(text) {
            Err(SpecError::MissingKey { section, key }) => {
                assert_eq!(section, "device");
                assert_eq!(key, "sms");
            }
            other => panic!("expected MissingKey, got {other:?}"),
        }
    }

    #[test]
    fn unknown_key_carries_its_line() {
        let mut text = DeviceSpec::from_arch(GpuArch::a100()).to_text();
        text.push_str("bogus = 1\n");
        match DeviceSpec::parse(&text) {
            Err(SpecError::UnknownKey { line, key }) => {
                assert_eq!(key, "bogus");
                assert_eq!(line, 18);
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }

    #[test]
    fn bad_gen_and_bad_numbers_are_rejected() {
        let base = DeviceSpec::from_arch(GpuArch::h100()).to_text();
        let swapped = base.replace("gen = hopper", "gen = volta");
        assert!(matches!(
            DeviceSpec::parse(&swapped),
            Err(SpecError::BadValue { key, .. }) if key == "gen"
        ));
        let negative = base.replace("clock_ghz = 1.83", "clock_ghz = -1.83");
        assert!(matches!(
            DeviceSpec::parse(&negative),
            Err(SpecError::BadValue { key, .. }) if key == "clock_ghz"
        ));
        let fraction = base.replace("mem_efficiency = 0.8", "mem_efficiency = 1.8");
        assert!(matches!(
            DeviceSpec::parse(&fraction),
            Err(SpecError::BadValue { key, .. }) if key == "mem_efficiency"
        ));
    }

    #[test]
    fn duplicate_key_is_rejected() {
        let mut text = DeviceSpec::from_arch(GpuArch::a100()).to_text();
        text.push_str("sms = 108\n");
        assert!(matches!(
            DeviceSpec::parse(&text),
            Err(SpecError::DuplicateKey { key, .. }) if key == "sms"
        ));
    }

    #[test]
    fn entry_outside_a_section_is_a_syntax_error() {
        assert!(matches!(
            DeviceSpec::parse("name = X\n"),
            Err(SpecError::Syntax { line: 1, .. })
        ));
    }

    #[test]
    fn builtin_lookup_resolves_key_and_marketing_name() {
        assert_eq!(builtin_device("h100").unwrap().name, "H100");
        assert_eq!(builtin_device("A100").unwrap().name, "A100");
        assert_eq!(builtin_device("rtx pro 6000").unwrap().name, "RTX PRO 6000");
        assert!(builtin_device("tpu").is_none());
    }
}
