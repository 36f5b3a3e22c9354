#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # bd-accuracy — quantization fidelity evaluation
//!
//! The accuracy half of the paper's efficiency/accuracy trade-off
//! (Table I), on synthetic KV tensors whose channel-outlier structure
//! matches published LLM cache statistics (see `DESIGN.md` §1 for the
//! substitution rationale).
//!
//! Real metrics (relative RMSE, cosine, attention-weight KL) are reported
//! alongside a clearly-labelled [`eval::longbench_proxy`]
//! score calibrated to the paper's scale.

pub mod eval;
pub mod rotation;
pub mod synth;

pub use eval::{evaluate_scheme, longbench_proxy, AccuracyReport, FP16_LONGBENCH};
pub use rotation::{evaluate_scheme_rotated, fwht, rotate_rows};
pub use synth::KvDistribution;
