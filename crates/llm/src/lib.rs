#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # bd-llm — end-to-end LLM inference simulation
//!
//! Turns per-kernel attention costs into model-level numbers: decode-step
//! latency, generation latency, serving throughput under memory admission,
//! and OOM behaviour — everything paper §VI-B measures.
//!
//! * [`model`] — the five evaluation model architectures;
//! * [`engine`] — decode-step/prefill/generation latency (attention system
//!   + projection & MLP GEMMs + tensor-parallel all-reduce);
//! * [`memory`] — weight/KV/scratch budgeting and OOM detection;
//! * [`serving`] — paged max-batch throughput evaluation, both analytic
//!   and functional (driving the `bd-serve` batched decode runtime).

pub mod engine;
pub mod memory;
pub mod model;
pub mod serving;

pub use engine::{Engine, WeightPrecision};
pub use memory::{MemoryModel, OomError, RESERVE_BYTES};
pub use model::ModelConfig;
pub use serving::{
    max_throughput, serve_scenario, FunctionalServeReport, ScenarioRequest, ServePolicy,
    ServingReport,
};
