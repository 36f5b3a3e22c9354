//! One decode step's attention launch.
//!
//! Every decode step fans one [`WorkUnit`] per `(sequence, kv-head,
//! device)` triple — or, when the scheduler detects sequences aliasing
//! the same sealed prefix pages, one **cascade unit** per `(prefix-group,
//! kv-head, device)` carrying every sharer's query block — over the scoped
//! threads of one [`run_units`] call: the analogue of a decode kernel
//! launched over independent (batch × KV-head) work. Device locality is a
//! property of the unit, not of the thread that runs it: a unit gathers its
//! head's packed blocks through the owning device's page table
//! ([`bd_kvcache::PagedKvStore::packed_blocks`] on
//! [`ShardedKvStore::device`]) — the simulated analogue of a
//! tensor-parallel rank that can only dereference its own HBM — and runs
//! [`BitDecoder::attend_head_partial`] (solo) or
//! [`BitDecoder::attend_head_partial_multi`] (cascade: the shared packed
//! prefix pages stream through the dequant LUTs **once** for all
//! sharers) — the per-head body of the decode path *without* the final
//! normalization, so the scheduler can combine per-device and per-sharer
//! partials through `OnlineSoftmax::merge` (the simulated all-reduce)
//! before normalizing once.
//!
//! Because each unit is an independent, deterministic computation and the
//! merge of a head's partial set is exact, results are **invariant to the
//! thread count and the device count** (including the inline `workers = 0`
//! mode), bit for bit.

use bd_core::{BitDecoder, OnlineSoftmax, PrefixSharer};
use bd_kvcache::{launch, DeviceId, KeyWindow, PackedBlock, SeqId, ShardedKvStore, StoreError};
use bd_lowbit::fastpath::FastDequantOps;
use bd_obs::{device_lane, SpanTracer};

/// Runtime execution errors of the serve layer — the typed replacements
/// for what used to be fail-stop panics. The session handles each by
/// degrading service (failing the affected request, retrying the step)
/// instead of aborting the run.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// A work unit was routed to a device that does not own its KV head —
    /// the device-locality contract a real TP rank enforces physically.
    Misrouted {
        /// The sequence of the offending unit.
        seq: SeqId,
        /// The unit's global KV head.
        head: usize,
        /// The device the unit was (wrongly) routed to.
        routed: DeviceId,
        /// The device the placement says owns the head.
        owner: DeviceId,
    },
    /// A thread executing the step's units died mid-step.
    WorkerLost,
    /// A store operation failed while serving the request.
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Misrouted {
                seq,
                head,
                routed,
                owner,
            } => write!(
                f,
                "unit for {seq:?} head {head} routed to {routed:?}, \
                 which does not own the head ({owner:?} does)"
            ),
            ServeError::WorkerLost => write!(f, "a worker thread died mid-step"),
            ServeError::Store(e) => write!(f, "store operation failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// One sequence's slice of a work unit: its identity and its grouped
/// `g_q × d` query block for the unit's head.
#[derive(Clone, Debug)]
pub(crate) struct UnitSharer {
    /// The sequence to attend over.
    pub seq: SeqId,
    /// The grouped `g_q × d` query block for the unit's head.
    pub q_block: Vec<Vec<f32>>,
}

/// One attention work unit for the current step: classically a
/// `(sequence, kv-head, device)` triple (one sharer, no shared prefix),
/// or — when the scheduler detects sequences aliasing the same sealed
/// prefix pages — a cascade `(prefix-group, kv-head, device)` unit whose
/// leading `prefix_blocks` packed blocks stream through the dequant LUTs
/// once for all sharers.
#[derive(Clone, Debug)]
pub(crate) struct WorkUnit {
    /// Dense index of this unit within the step: its position in the
    /// launch and in the returned results.
    pub unit: usize,
    /// The **global** KV head within the sequences.
    pub head: usize,
    /// The device owning that head's KV shard — the only arena the unit
    /// may read.
    pub device: DeviceId,
    /// Leading packed blocks every sharer reads from the same physical
    /// pages (`0` for solo units).
    pub prefix_blocks: usize,
    /// The sequences this unit attends for; one entry is the classic
    /// per-sequence unit.
    pub sharers: Vec<UnitSharer>,
}

impl WorkUnit {
    /// The unit's first sharer — the sequence blamed in routing errors.
    pub fn primary_seq(&self) -> SeqId {
        self.sharers[0].seq
    }
}

/// One unit's finished attention partials; [`run_units`] returns them in
/// unit order.
#[derive(Clone, Debug)]
pub(crate) struct UnitResult {
    /// One un-normalized softmax partial per sharer, in the unit's sharer
    /// order — the all-reduce payload. The scheduler merges each
    /// sequence's per-device partials with `OnlineSoftmax::merge` and
    /// normalizes once. Solo units carry exactly one.
    pub partials: Vec<OnlineSoftmax>,
    /// Fast-dequant instructions the fused kernel streamed for this unit
    /// (deduped: a shared prefix block counts once, not once per sharer).
    pub ops: FastDequantOps,
}

/// Executes one work unit on its owning device: local-arena block gather +
/// the decode path's per-head attention body, un-normalized.
///
/// Solo units run [`BitDecoder::attend_head_partial`] exactly as before;
/// group units run the cascade
/// [`BitDecoder::attend_head_partial_multi`], which walks the shared
/// prefix blocks once and returns a bitwise-identical partial per sharer.
///
/// Returns [`ServeError::Misrouted`] — computing nothing — if the unit's
/// head is not placed on the unit's device: the device-locality contract a
/// real TP rank enforces physically.
fn run_unit(
    unit: &WorkUnit,
    store: &ShardedKvStore,
    decoder: &BitDecoder,
    tracer: &SpanTracer,
) -> Result<UnitResult, ServeError> {
    let placement = store.placement();
    let owner = placement.device_of(unit.head);
    if owner != unit.device {
        return Err(ServeError::Misrouted {
            seq: unit.primary_seq(),
            head: unit.head,
            routed: unit.device,
            owner,
        });
    }
    // Read ONLY this device's arena: the gather goes through the local
    // store and the head's local slot, never through another device.
    let local = placement.local_index(unit.head);
    let span = tracer.begin();
    let dev_store = store.device(unit.device);
    let (partials, ops) = if unit.sharers.len() == 1 {
        let sharer = &unit.sharers[0];
        let blocks = dev_store.packed_blocks(sharer.seq, local);
        let (res_k, res_v) = dev_store.residual_window(sharer.seq, local);
        let (partial, ops) = decoder.attend_head_partial(&sharer.q_block, &blocks, res_k, res_v);
        tracer.end_with(
            span,
            "execute",
            device_lane(unit.device.0 as usize),
            &[("unit", unit.unit as f64), ("head", unit.head as f64)],
        );
        (vec![partial], ops)
    } else {
        let p = unit.prefix_blocks;
        let gathers: Vec<Vec<&PackedBlock>> = unit
            .sharers
            .iter()
            .map(|s| dev_store.packed_blocks(s.seq, local))
            .collect();
        // The scheduler only groups sequences whose first `p` blocks
        // alias the same physical pages — so the gathers agree not just
        // bitwise but by identity.
        debug_assert!(gathers.iter().all(|g| {
            g.len() >= p
                && g[..p]
                    .iter()
                    .zip(&gathers[0][..p])
                    .all(|(a, b)| std::ptr::eq(*a, *b))
        }));
        let prefix = &gathers[0][..p];
        let inputs: Vec<PrefixSharer<'_, &PackedBlock, KeyWindow>> = unit
            .sharers
            .iter()
            .zip(&gathers)
            .map(|(s, g)| {
                let (res_k, res_v) = dev_store.residual_window(s.seq, local);
                PrefixSharer {
                    q_block: &s.q_block,
                    suffix: &g[p..],
                    res_k,
                    res_v,
                }
            })
            .collect();
        let (partials, ops) = decoder.attend_head_partial_multi(prefix, &inputs);
        tracer.end_with(
            span,
            "shared_attn",
            device_lane(unit.device.0 as usize),
            &[
                ("unit", unit.unit as f64),
                ("head", unit.head as f64),
                ("sharers", unit.sharers.len() as f64),
                ("prefix_blocks", p as f64),
            ],
        );
        (partials, ops)
    };
    Ok(UnitResult { partials, ops })
}

/// Runs one step's units to completion and returns their results in unit
/// order — the step's kernel launch, one [`launch`] task per unit.
///
/// `threads` is the launch width, the calling thread included, so
/// `threads ≤ 1` runs every unit inline through the same code. Each unit
/// index is claimed exactly once and its result lands in that index's
/// slot, so no result depends on which thread ran it. The threads borrow
/// `store` and `decoder` for the call only; once it returns, the caller
/// may mutate the store.
///
/// # Errors
///
/// Returns the error of the lowest-indexed unit that failed, whatever
/// order the threads finished in: [`ServeError::Misrouted`] for a unit
/// routed off its head's device, [`ServeError::WorkerLost`] for a unit
/// whose spawned thread panicked.
pub(crate) fn run_units(
    units: &[WorkUnit],
    threads: usize,
    store: &ShardedKvStore,
    decoder: &BitDecoder,
    tracer: &SpanTracer,
) -> Result<Vec<UnitResult>, ServeError> {
    launch(units.len(), threads, |i| {
        run_unit(&units[i], store, decoder, tracer)
    })
    .into_iter()
    .map(|slot| slot.unwrap_or(Err(ServeError::WorkerLost)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_core::{query_transform, AttentionConfig, BitDecoder};
    use bd_gpu_sim::GpuArch;
    use bd_kvcache::{CacheConfig, PackLayout, Partitioning, Placement, QuantScheme, TokenMatrix};

    /// The classic single-sequence unit.
    fn solo(
        unit: usize,
        seq: SeqId,
        head: usize,
        device: DeviceId,
        q_block: Vec<Vec<f32>>,
    ) -> WorkUnit {
        WorkUnit {
            unit,
            head,
            device,
            prefix_blocks: 0,
            sharers: vec![UnitSharer { seq, q_block }],
        }
    }

    /// `seqs` prefilled sequences over `devices` devices and one solo unit
    /// per `(sequence, kv-head)`, sequence-major.
    fn setup(devices: usize, seqs: usize) -> (BitDecoder, ShardedKvStore, Vec<WorkUnit>) {
        let attn = AttentionConfig::gqa(4, 2, 16);
        let decoder = BitDecoder::builder(GpuArch::rtx4090())
            .attention(attn)
            .scheme(QuantScheme::kc4())
            .build();
        let cfg = CacheConfig::new(16, QuantScheme::kc4(), PackLayout::sm80_default());
        let placement = Placement::new(devices, Partitioning::HeadModulo, attn.heads_kv);
        let mut store = ShardedKvStore::new(cfg, placement.clone(), 64, 32);
        let codec = decoder.codec();
        let len = 128 + 11;
        let k: Vec<TokenMatrix> = (0..2)
            .map(|h| TokenMatrix::from_fn(len, 16, |t, c| ((h + t * 16 + c) as f32 * 0.3).sin()))
            .collect();
        let q: Vec<Vec<f32>> = (0..4)
            .map(|h| (0..16).map(|c| ((h * 16 + c) as f32 * 0.7).sin()).collect())
            .collect();
        let mut units = Vec::new();
        for _ in 0..seqs {
            let (seq, _) = store.admit_prefill_cached(&k, &k, 0, &codec).unwrap();
            for (head, q_block) in query_transform(&q, &attn).into_iter().enumerate() {
                units.push(solo(
                    units.len(),
                    seq,
                    head,
                    placement.device_of(head),
                    q_block,
                ));
            }
        }
        (decoder, store, units)
    }

    fn run(
        units: &[WorkUnit],
        threads: usize,
        store: &ShardedKvStore,
        decoder: &BitDecoder,
    ) -> Result<Vec<UnitResult>, ServeError> {
        run_units(units, threads, store, decoder, &SpanTracer::disabled())
    }

    #[test]
    fn threaded_results_match_inline_bitwise_at_any_device_count() {
        let (decoder, store1, units1) = setup(1, 1);
        let inline = run(&units1, 0, &store1, &decoder).unwrap();
        for devices in [1usize, 2] {
            let (_, store, units) = setup(devices, 1);
            for workers in [0usize, 1, 3] {
                let got = run(&units, workers * devices, &store, &decoder).unwrap();
                assert_eq!(inline.len(), got.len());
                for (a, b) in inline.iter().zip(&got) {
                    assert_eq!(
                        a.partials[0].clone().finish(),
                        b.partials[0].clone().finish(),
                        "devices={devices} workers={workers}"
                    );
                    assert_eq!(a.ops, b.ops);
                }
            }
        }
    }

    #[test]
    fn units_are_routed_to_owning_device_groups() {
        // Each unit reads its owning device's arena: its partial is the one
        // that arena's blocks and residual give.
        let (decoder, store, units) = setup(2, 1);
        assert_eq!(store.devices(), 2);
        let results = run(&units, 2 * 2, &store, &decoder).unwrap();
        for (u, r) in units.iter().zip(&results) {
            assert_eq!(u.device, store.placement().device_of(u.head));
            let dev = store.device(u.device);
            let local = store.placement().local_index(u.head);
            let sharer = &u.sharers[0];
            let (res_k, res_v) = dev.residual(sharer.seq, local);
            let (partial, ops) = decoder.attend_head_partial(
                &sharer.q_block,
                &dev.packed_blocks(sharer.seq, local),
                res_k,
                res_v,
            );
            assert_eq!(r.partials[0].clone().finish(), partial.finish());
            assert_eq!(r.ops, ops);
        }
    }

    #[test]
    fn grouped_unit_partials_match_solo_units_bitwise() {
        // Three sequences forked off one block-aligned 256-token prompt
        // alias the same sealed prefix pages; a cascade unit over all
        // three must return, per sharer, exactly the partial its solo
        // unit returns — at every head, on every device, threaded or not.
        let attn = AttentionConfig::gqa(4, 2, 16);
        let decoder = BitDecoder::builder(GpuArch::rtx4090())
            .attention(attn)
            .scheme(QuantScheme::kc4())
            .build();
        let cfg = CacheConfig::new(16, QuantScheme::kc4(), PackLayout::sm80_default());
        let placement = Placement::new(2, Partitioning::HeadModulo, attn.heads_kv);
        let mut store = ShardedKvStore::new(cfg, placement.clone(), 128, 32);
        let codec = decoder.codec();
        let k: Vec<TokenMatrix> = (0..2)
            .map(|h| TokenMatrix::from_fn(256, 16, |t, c| ((h + t * 16 + c) as f32 * 0.3).sin()))
            .collect();
        let (parent, _) = store.admit_prefill_cached(&k, &k, 512, &codec).unwrap();
        let seqs = [
            parent,
            store.fork(parent, 256, 512).unwrap(),
            store.fork(parent, 256, 512).unwrap(),
        ];
        // Diverge each lineage inside its residual window.
        for (i, &seq) in seqs.iter().enumerate() {
            for t in 0..(4 + i * 3) {
                let rows: Vec<Vec<f32>> = (0..2)
                    .map(|h| {
                        (0..16)
                            .map(|c| ((i * 1000 + t * 16 + c + h) as f32 * 0.11).cos())
                            .collect()
                    })
                    .collect();
                store.append_step(seq, &rows, &rows, &codec).unwrap();
            }
        }
        for head in 0..attn.heads_kv {
            let device = placement.device_of(head);
            let run_len = store.shared_block_run(device, &seqs);
            assert_eq!(run_len, 2, "head {head}");
            let q_of = |i: usize| -> Vec<Vec<f32>> {
                let q: Vec<Vec<f32>> = (0..4)
                    .map(|h| {
                        (0..16)
                            .map(|c| ((i * 31 + h * 16 + c) as f32 * 0.7).sin())
                            .collect()
                    })
                    .collect();
                query_transform(&q, &attn).swap_remove(head)
            };
            let solo_units: Vec<WorkUnit> = seqs
                .iter()
                .enumerate()
                .map(|(i, &seq)| solo(i, seq, head, device, q_of(i)))
                .collect();
            let solo_results = run(&solo_units, 2 * 2, &store, &decoder).unwrap();
            let group = WorkUnit {
                unit: 0,
                head,
                device,
                prefix_blocks: run_len,
                sharers: seqs
                    .iter()
                    .enumerate()
                    .map(|(i, &seq)| UnitSharer {
                        seq,
                        q_block: q_of(i),
                    })
                    .collect(),
            };
            let grouped = run(&[group], 2 * 2, &store, &decoder).unwrap();
            assert_eq!(grouped[0].partials.len(), seqs.len());
            let mut solo_ops = FastDequantOps::default();
            for (i, r) in solo_results.iter().enumerate() {
                assert_eq!(
                    grouped[0].partials[i].clone().finish(),
                    r.partials[0].clone().finish(),
                    "head {head}, sharer {i}"
                );
                solo_ops += r.ops;
            }
            assert!(
                grouped[0].ops.total() < solo_ops.total(),
                "head {head}: cascade walk must dedup dequant work"
            );
        }
    }

    #[test]
    fn misrouted_unit_is_rejected_with_typed_error() {
        let (decoder, store, mut units) = setup(2, 1);
        // Head 0 lives on device 0 under head-modulo; claim device 1.
        units[0].device = DeviceId(1);
        for workers in [0usize, 2] {
            let err = run(&units, workers * 2, &store, &decoder).unwrap_err();
            assert_eq!(
                err,
                ServeError::Misrouted {
                    seq: units[0].primary_seq(),
                    head: 0,
                    routed: DeviceId(1),
                    owner: DeviceId(0),
                },
                "workers={workers}"
            );
            // The failed step left nothing behind: a correct batch at the
            // same width produces a clean, complete step, in unit order.
            let fixed = {
                let mut u = units.clone();
                u[0].device = DeviceId(0);
                u
            };
            let results = run(&fixed, workers * 2, &store, &decoder).unwrap();
            let inline = run(&fixed, 0, &store, &decoder).unwrap();
            assert_eq!(results.len(), units.len());
            for (r, i) in results.iter().zip(&inline) {
                assert_eq!(
                    r.partials[0].clone().finish(),
                    i.partials[0].clone().finish(),
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn lowest_indexed_error_wins_at_every_thread_count() {
        // Units 1 and 3 are head 1 of two different sequences; head 1
        // lives on device 1 under head-modulo, so claiming device 0
        // misroutes both. The error names unit 1's sequence however the
        // threads interleave.
        let (decoder, store, mut units) = setup(2, 2);
        units[1].device = DeviceId(0);
        units[3].device = DeviceId(0);
        assert_ne!(units[1].primary_seq(), units[3].primary_seq());
        for threads in 0..=5 {
            for _ in 0..8 {
                let err = run(&units, threads, &store, &decoder).unwrap_err();
                assert_eq!(
                    err,
                    ServeError::Misrouted {
                        seq: units[1].primary_seq(),
                        head: 1,
                        routed: DeviceId(0),
                        owner: DeviceId(1),
                    },
                    "threads={threads}"
                );
            }
        }
    }
}
