//! One decode step's launch.
//!
//! Every decode step fans one [`WorkUnit`] per `(sequence, kv-head,
//! device)` triple — or, when the scheduler detects sequences aliasing
//! the same sealed prefix pages, one **cascade unit** per `(prefix-group,
//! kv-head, device)` carrying every sharer — over the scoped threads of one
//! [`run_units`] call: the analogue of a decode kernel launched over
//! independent (batch × KV-head) work. Device locality is a property of the
//! unit, not of the thread that runs it: a unit gathers its head's packed
//! blocks through the owning device's page table
//! ([`LaunchPages::packed_blocks`]) — the simulated analogue of a
//! tensor-parallel rank that can only dereference its own HBM — and runs
//! [`BitDecoder::attend_head_partial`] (solo) or
//! [`BitDecoder::attend_head_partial_multi`] (cascade: the shared packed
//! prefix pages stream through the dequant LUTs **once** for all
//! sharers) — the per-head body of the decode path *without* the final
//! normalization.
//!
//! The launch also runs each sequence's model, the work around attention.
//! A sequence's first unit to run builds its query (the model's
//! [`SequenceModel::query`]; each unit reads its KV head's rows of it in
//! place); each unit hands its head's partial to the sequence; the unit
//! that hands over the last one normalizes them all — the simulated
//! all-reduce — calls the model's [`SequenceModel::advance`] and appends
//! the new K/V rows to the sequence's residual windows in place: a
//! split-K kernel whose last block to finish runs the epilogue. Different
//! sequences' models run concurrently, each model's own calls in order.
//!
//! The launch holds the store split
//! ([`bd_kvcache::ShardedKvStore::split_for_launch`]):
//! every device's pages shared, and each sequence's windows in its
//! [`SeqTask`] behind an `RwLock` — read by its units, written once by its
//! epilogue, after the last of them has let go. An append that would flush
//! a block or grow the page table is left to the session, after the launch.
//!
//! Because each unit is an independent, deterministic computation, each
//! sequence's partials are normalized in head order whoever delivered
//! them, and a model panic fails only its own sequence, results are
//! **invariant to the thread count and the device count** (including the
//! inline `workers = 0` mode), bit for bit.

use crate::model::{SequenceModel, StepKv};
use bd_core::{AttentionConfig, BitDecoder, OnlineSoftmax, PrefixSharer, QueryHeads};
use bd_kvcache::{
    launch, DeviceId, KeyWindow, LaunchPages, LaunchSeq, PackedBlock, SeqId, StoreError,
};
use bd_lowbit::fastpath::FastDequantOps;
use bd_obs::{device_lane, SpanTracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};

/// Runtime execution errors of the serve layer — the typed replacements
/// for what used to be fail-stop panics. The session handles each by
/// degrading service (failing the affected request) instead of aborting
/// the run.
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
    /// The request's [`SequenceModel`] panicked (or returned a query of the
    /// wrong shape) in `call` at generation step `step`.
    ModelPanicked {
        /// `"query"` or `"advance"`.
        call: &'static str,
        /// The generation step of the call.
        step: usize,
    },
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
            ServeError::ModelPanicked { call, step } => {
                write!(f, "the sequence model panicked in {call} at step {step}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
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
    /// launch.
    pub unit: usize,
    /// The **global** KV head within the sequences.
    pub head: usize,
    /// The device owning that head's KV shard — the only arena the unit
    /// may read.
    pub device: DeviceId,
    /// Leading packed blocks every sharer reads from the same physical
    /// pages (`0` for solo units).
    pub prefix_blocks: usize,
    /// The sequences this unit attends for, as indices into the launch's
    /// [`SeqTask`]s; one entry is the classic per-sequence unit.
    pub sharers: Vec<usize>,
}

/// What a sequence's step produced.
#[derive(Debug, PartialEq)]
pub(crate) enum SeqOut {
    /// The model's token; the launch appended its K/V rows in place.
    Appended(u32),
    /// The model's token and the K/V rows the launch left to the session:
    /// they flush a block, grow the pages or fail a check.
    Pending(StepKv),
}

/// One sequence's side of a step launch: its model, its residual windows,
/// the query the first of its units builds, and the per-head partials the
/// last of its units turns into the model's next token and appends.
pub(crate) struct SeqTask<'a> {
    /// The generation step this launch decodes.
    step: usize,
    /// The sequence's windows on every device: units read them, the
    /// epilogue appends to them once every unit has delivered.
    windows: RwLock<LaunchSeq<'a>>,
    /// The `heads_q × d` query; `None` when the model panicked building
    /// it or built it in the wrong shape.
    query: OnceLock<Option<QueryHeads>>,
    state: Mutex<SeqState<'a>>,
}

/// The mutable half of a [`SeqTask`].
struct SeqState<'a> {
    model: &'a mut dyn SequenceModel,
    /// Each KV head's partial, once its unit has delivered it.
    partials: Vec<Option<OnlineSoftmax>>,
    /// Heads whose unit has not delivered yet.
    left: usize,
    /// The step's product, set by the last delivery.
    out: Option<Result<SeqOut, ServeError>>,
}

impl<'a> SeqTask<'a> {
    /// The sequence of `windows` at generation step `step`, driven by
    /// `model`, with one unit per each of `heads` KV heads to wait for.
    pub(crate) fn new(
        windows: LaunchSeq<'a>,
        step: usize,
        model: &'a mut dyn SequenceModel,
        heads: usize,
    ) -> Self {
        SeqTask {
            step,
            windows: RwLock::new(windows),
            query: OnceLock::new(),
            state: Mutex::new(SeqState {
                model,
                partials: (0..heads).map(|_| None).collect(),
                left: heads,
                out: None,
            }),
        }
    }

    /// The sequence.
    fn seq(&self) -> SeqId {
        self.windows().seq()
    }

    /// The state, even after a panic elsewhere poisoned its lock: every
    /// write under it is a plain store, so it is never left half-done.
    fn state(&self) -> MutexGuard<'_, SeqState<'a>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The windows, for reading. A unit lets go before it delivers, so the
    /// epilogue's write never waits.
    fn windows(&self) -> RwLockReadGuard<'_, LaunchSeq<'a>> {
        self.windows.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// KV head `head`'s `g_q × d` block of the query — query heads
    /// `head·g_q ..`, the rows [`bd_core::query_transform`] groups — built
    /// by whichever unit asks first (the others wait for it); `None` when
    /// the model panicked or returned the wrong shape.
    fn q_block(
        &self,
        head: usize,
        attn: &AttentionConfig,
        tracer: &SpanTracer,
        lane: u32,
    ) -> Option<&[Vec<f32>]> {
        let q = self.query.get_or_init(|| {
            let span = tracer.begin();
            let mut state = self.state();
            let q = catch_unwind(AssertUnwindSafe(|| state.model.query(self.step)))
                .ok()
                .filter(|q| {
                    q.len() == attn.heads_q && q.iter().all(|row| row.len() == attn.head_dim)
                });
            tracer.end(span, "query", lane);
            q
        });
        let gq = attn.group_factor();
        q.as_ref().map(|q| &q[head * gq..(head + 1) * gq])
    }

    /// Delivers head `head`'s partial (`None` when the query failed). The
    /// last delivery normalizes every head's partial, in head order,
    /// advances the model and appends its rows in the windows if they fit.
    fn deliver(&self, head: usize, partial: Option<OnlineSoftmax>, tracer: &SpanTracer, lane: u32) {
        let mut state = self.state();
        state.partials[head] = partial;
        state.left -= 1;
        if state.left > 0 {
            return;
        }
        let span = tracer.begin();
        let failed = |call| ServeError::ModelPanicked {
            call,
            step: self.step,
        };
        let out = match self.query.get() {
            Some(Some(_)) => {
                let SeqState {
                    model, partials, ..
                } = &mut *state;
                // Every head delivered: the heads' rows, head-major, are
                // the `heads_q × d` output.
                let output: Vec<Vec<f32>> = partials
                    .iter_mut()
                    .filter_map(Option::take)
                    .flat_map(OnlineSoftmax::finish)
                    .collect();
                catch_unwind(AssertUnwindSafe(|| model.advance(self.step, &output)))
                    .map(|kv| {
                        let mut windows =
                            self.windows.write().unwrap_or_else(PoisonError::into_inner);
                        if windows.append_in_window(&kv.k, &kv.v) {
                            SeqOut::Appended(kv.token)
                        } else {
                            SeqOut::Pending(kv)
                        }
                    })
                    .map_err(|_| failed("advance"))
            }
            _ => Err(failed("query")),
        };
        state.out = Some(out);
        tracer.end(span, "advance", lane);
    }
}

/// What one step launch produced.
pub(crate) struct StepOutput {
    /// Per sequence, in [`SeqTask`] order: the model's next token and KV
    /// rows and whether they are appended, or what failed the sequence —
    /// its model's panic, or the error of the lowest-indexed failed unit it
    /// shares.
    pub outs: Vec<Result<SeqOut, ServeError>>,
    /// Fast-dequant instructions the fused kernels streamed (deduped: a
    /// shared prefix block counts once, not once per sharer).
    pub ops: FastDequantOps,
    /// Whether any unit failed.
    pub units_failed: bool,
}

/// Executes one work unit on its owning device: its sharers' queries,
/// local-arena block gather + the decode path's per-head attention body,
/// un-normalized, and the delivery of each sharer's partial.
///
/// Solo units run [`BitDecoder::attend_head_partial`]; group units run
/// the cascade [`BitDecoder::attend_head_partial_multi`], which walks the
/// shared prefix blocks once and returns a bitwise-identical partial per
/// sharer. A sharer whose model panicked building its query is left out.
///
/// Returns [`ServeError::Misrouted`] — computing and delivering nothing —
/// if the unit's head is not placed on the unit's device: the
/// device-locality contract a real TP rank enforces physically.
fn run_unit(
    unit: &WorkUnit,
    seqs: &[SeqTask<'_>],
    pages: &LaunchPages<'_>,
    decoder: &BitDecoder,
    tracer: &SpanTracer,
) -> Result<FastDequantOps, ServeError> {
    let placement = pages.placement();
    let owner = placement.device_of(unit.head);
    if owner != unit.device {
        return Err(ServeError::Misrouted {
            seq: seqs[unit.sharers[0]].seq(),
            head: unit.head,
            routed: unit.device,
            owner,
        });
    }
    let attn = decoder.attention();
    let lane = device_lane(unit.device.0 as usize);
    // Read ONLY this device's arena: the gather goes through the device's
    // page table and the head's local slot, never through another device.
    let (device, local) = (unit.device, placement.local_index(unit.head));
    if let [i] = unit.sharers[..] {
        let s = &seqs[i];
        let Some(q_block) = s.q_block(unit.head, attn, tracer, lane) else {
            s.deliver(unit.head, None, tracer, lane);
            return Ok(FastDequantOps::default());
        };
        let span = tracer.begin();
        let windows = s.windows();
        let blocks = pages.packed_blocks(device, &windows, local);
        let (res_k, res_v) = windows.residual_window(device, local);
        let (partial, ops) = decoder.attend_head_partial(q_block, &blocks, res_k, res_v);
        drop(windows);
        tracer.end_with(
            span,
            "execute",
            lane,
            &[("unit", unit.unit as f64), ("head", unit.head as f64)],
        );
        s.deliver(unit.head, Some(partial), tracer, lane);
        return Ok(ops);
    }
    let mut live: Vec<(&SeqTask<'_>, &[Vec<f32>])> = Vec::with_capacity(unit.sharers.len());
    for &i in &unit.sharers {
        let s = &seqs[i];
        match s.q_block(unit.head, attn, tracer, lane) {
            Some(q_block) => live.push((s, q_block)),
            None => s.deliver(unit.head, None, tracer, lane),
        }
    }
    if live.is_empty() {
        return Ok(FastDequantOps::default());
    }
    let span = tracer.begin();
    let p = unit.prefix_blocks;
    let windows: Vec<_> = live.iter().map(|(s, _)| s.windows()).collect();
    let gathers: Vec<Vec<&PackedBlock>> = windows
        .iter()
        .map(|w| pages.packed_blocks(device, w, local))
        .collect();
    // The scheduler only groups sequences whose first `p` blocks alias
    // the same physical pages — so the gathers agree not just bitwise but
    // by identity.
    debug_assert!(gathers.iter().all(|g| {
        g.len() >= p
            && g[..p]
                .iter()
                .zip(&gathers[0][..p])
                .all(|(a, b)| std::ptr::eq(*a, *b))
    }));
    let prefix = &gathers[0][..p];
    let inputs: Vec<PrefixSharer<'_, &PackedBlock, KeyWindow>> = (live.iter().zip(&windows))
        .zip(&gathers)
        .map(|((&(_, q_block), w), g)| {
            let (res_k, res_v) = w.residual_window(device, local);
            PrefixSharer {
                q_block,
                suffix: &g[p..],
                res_k,
                res_v,
            }
        })
        .collect();
    let (partials, ops) = decoder.attend_head_partial_multi(prefix, &inputs);
    drop(inputs);
    drop(windows);
    tracer.end_with(
        span,
        "shared_attn",
        lane,
        &[
            ("unit", unit.unit as f64),
            ("head", unit.head as f64),
            ("sharers", live.len() as f64),
            ("prefix_blocks", p as f64),
        ],
    );
    for ((s, _), partial) in live.into_iter().zip(partials) {
        s.deliver(unit.head, Some(partial), tracer, lane);
    }
    Ok(ops)
}

/// Runs one step's units — and through them every sequence's model — to
/// completion: the step's kernel launch, one [`launch`] task per unit.
///
/// `threads` is the launch width, the calling thread included, so
/// `threads ≤ 1` runs every unit inline through the same code. Each unit
/// index is claimed exactly once and each sequence's product is built
/// from its heads in head order, so no result depends on which thread ran
/// what. The threads borrow the split store (`pages` and each task's
/// windows), `decoder` and the models for the call only; once it returns
/// and the tasks are gone, the caller may mutate the store.
///
/// A failed unit fails the sequences it carries, with
/// [`ServeError::Misrouted`] for a unit routed off its head's device or
/// [`ServeError::WorkerLost`] for a unit whose spawned thread panicked
/// (the lowest-indexed failed unit names the error); every other sequence
/// completes its step.
pub(crate) fn run_units(
    units: &[WorkUnit],
    seqs: Vec<SeqTask<'_>>,
    threads: usize,
    pages: &LaunchPages<'_>,
    decoder: &BitDecoder,
    tracer: &SpanTracer,
) -> StepOutput {
    let results = launch(units.len(), threads, |i| {
        run_unit(&units[i], &seqs, pages, decoder, tracer)
    });
    let mut outs: Vec<Option<Result<SeqOut, ServeError>>> = seqs
        .into_iter()
        .map(|s| {
            s.state
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .out
        })
        .collect();
    let mut ops = FastDequantOps::default();
    let mut units_failed = false;
    for (unit, result) in units.iter().zip(results) {
        match result.unwrap_or(Err(ServeError::WorkerLost)) {
            Ok(unit_ops) => ops += unit_ops,
            Err(e) => {
                units_failed = true;
                // A sequence with an undelivered head never advanced.
                for &i in &unit.sharers {
                    outs[i].get_or_insert_with(|| Err(e.clone()));
                }
            }
        }
    }
    StepOutput {
        outs: outs
            .into_iter()
            .map(|out| out.unwrap_or(Err(ServeError::WorkerLost)))
            .collect(),
        ops,
        units_failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_core::{AttentionConfig, BitDecoder, QueryHeads};
    use bd_gpu_sim::GpuArch;
    use bd_kvcache::{
        CacheConfig, PackLayout, Partitioning, Placement, QuantScheme, ShardedKvStore, TokenMatrix,
    };

    /// Asks the same query at every step and hands back the attention
    /// output it receives as its K rows, so a test can read it. With
    /// `append`, its V rows are the output's first `heads_kv` rows and its
    /// K rows the next ones, a token the windows take; without, it has no V
    /// rows, and the launch leaves the store as it found it.
    struct Echo {
        query: QueryHeads,
        append: bool,
    }

    impl SequenceModel for Echo {
        fn prompt(&mut self) -> (Vec<TokenMatrix>, Vec<TokenMatrix>) {
            (Vec::new(), Vec::new())
        }
        fn prompt_tokens(&self) -> usize {
            0
        }
        fn gen_tokens(&self) -> usize {
            1
        }
        fn query(&mut self, _: usize) -> QueryHeads {
            self.query.clone()
        }
        fn advance(&mut self, _: usize, output: &QueryHeads) -> StepKv {
            let (v, k) = output.split_at(2);
            StepKv {
                token: 0,
                k: if self.append {
                    k.to_vec()
                } else {
                    output.clone()
                },
                v: if self.append { v.to_vec() } else { Vec::new() },
            }
        }
    }

    fn attn() -> AttentionConfig {
        AttentionConfig::gqa(4, 2, 16)
    }

    fn decoder() -> BitDecoder {
        BitDecoder::builder(GpuArch::rtx4090())
            .attention(attn())
            .scheme(QuantScheme::kc4())
            .build()
    }

    /// Sequence `i`'s query.
    fn query_of(i: usize) -> QueryHeads {
        (0..4)
            .map(|h| {
                (0..16)
                    .map(|c| ((i * 31 + h * 16 + c) as f32 * 0.7).sin())
                    .collect()
            })
            .collect()
    }

    /// The classic single-sequence unit.
    fn solo(unit: usize, head: usize, device: DeviceId, sharer: usize) -> WorkUnit {
        WorkUnit {
            unit,
            head,
            device,
            prefix_blocks: 0,
            sharers: vec![sharer],
        }
    }

    /// `seqs` prefilled sequences, each with pages for one more token, over
    /// `devices` devices and one solo unit per `(sequence, kv-head)`,
    /// sequence-major.
    fn setup(devices: usize, seqs: usize) -> (ShardedKvStore, Vec<SeqId>, Vec<WorkUnit>) {
        let cfg = CacheConfig::new(16, QuantScheme::kc4(), PackLayout::sm80_default());
        let placement = Placement::new(devices, Partitioning::HeadModulo, 2);
        let mut store = ShardedKvStore::new(cfg, placement.clone(), 64, 32);
        let codec = decoder().codec();
        let len = 128 + 11;
        let k: Vec<TokenMatrix> = (0..2)
            .map(|h| TokenMatrix::from_fn(len, 16, |t, c| ((h + t * 16 + c) as f32 * 0.3).sin()))
            .collect();
        let mut ids = Vec::new();
        let mut units = Vec::new();
        for i in 0..seqs {
            let (seq, _) = store.admit_prefill_cached(&k, &k, len + 1, &codec).unwrap();
            ids.push(seq);
            for head in 0..2 {
                units.push(solo(units.len(), head, placement.device_of(head), i));
            }
        }
        (store, ids, units)
    }

    /// Launches `units` over the sequences `ids` (sequence `i` asking
    /// `query_of(i)`, appending in its windows if `append`) and returns
    /// each sequence's product, or its error, and the launch's dequant ops.
    fn launch_echo(
        units: &[WorkUnit],
        ids: &[SeqId],
        threads: usize,
        store: &mut ShardedKvStore,
        append: bool,
    ) -> (Vec<Result<SeqOut, ServeError>>, FastDequantOps) {
        let decoder = decoder();
        let mut models: Vec<Echo> = (0..ids.len())
            .map(|i| Echo {
                query: query_of(i),
                append,
            })
            .collect();
        let (pages, windows) = store.split_for_launch(ids);
        let seqs = (windows.into_iter().zip(&mut models))
            .map(|(w, m)| SeqTask::new(w, 0, m, 2))
            .collect();
        let out = run_units(
            units,
            seqs,
            threads,
            &pages,
            &decoder,
            &SpanTracer::disabled(),
        );
        (out.outs, out.ops)
    }

    /// [`launch_echo`] without appends: each sequence's attention output.
    fn run(
        units: &[WorkUnit],
        ids: &[SeqId],
        threads: usize,
        store: &mut ShardedKvStore,
    ) -> (Vec<Result<QueryHeads, ServeError>>, FastDequantOps) {
        let (outs, ops) = launch_echo(units, ids, threads, store, false);
        let outputs = (outs.into_iter())
            .map(|out| match out? {
                SeqOut::Pending(kv) => Ok(kv.k),
                SeqOut::Appended(_) => unreachable!("no V rows to append"),
            })
            .collect();
        (outputs, ops)
    }

    #[test]
    fn threaded_results_match_inline_bitwise_at_any_device_count() {
        let (mut store1, ids1, units1) = setup(1, 2);
        let inline = run(&units1, &ids1, 0, &mut store1);
        assert!(inline.0.iter().all(Result::is_ok));
        for devices in [1usize, 2] {
            let (mut store, ids, units) = setup(devices, 2);
            for workers in [0usize, 1, 3] {
                let got = run(&units, &ids, workers * devices, &mut store);
                assert_eq!(got, inline, "devices={devices} workers={workers}");
            }
        }
    }

    #[test]
    fn units_are_routed_to_owning_device_groups() {
        // Each unit reads its owning device's arena: the output is the one
        // those arenas' blocks and residuals give, head by head.
        let (mut store, ids, units) = setup(2, 1);
        assert_eq!(store.devices(), 2);
        let decoder = decoder();
        let (outputs, ops) = run(&units, &ids, 2 * 2, &mut store);
        let q = bd_core::query_transform(&query_of(0), &attn());
        let mut want = Vec::new();
        let mut want_ops = FastDequantOps::default();
        for u in &units {
            assert_eq!(u.device, store.placement().device_of(u.head));
            let dev = store.device(u.device);
            let local = store.placement().local_index(u.head);
            let (res_k, res_v) = dev.residual(ids[0], local);
            let (partial, unit_ops) = decoder.attend_head_partial(
                &q[u.head],
                &dev.packed_blocks(ids[0], local),
                res_k,
                res_v,
            );
            want.extend(partial.finish());
            want_ops += unit_ops;
        }
        assert_eq!(outputs, vec![Ok(want)]);
        assert_eq!(ops, want_ops);
    }

    #[test]
    fn grouped_unit_partials_match_solo_units_bitwise() {
        // Three sequences forked off one block-aligned 256-token prompt
        // alias the same sealed prefix pages; one cascade unit per head
        // over all three must give every sequence exactly the output its
        // solo units give — on every device, threaded or not.
        let decoder = decoder();
        let cfg = CacheConfig::new(16, QuantScheme::kc4(), PackLayout::sm80_default());
        let placement = Placement::new(2, Partitioning::HeadModulo, 2);
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
        let mut solo_units = Vec::new();
        let mut grouped = Vec::new();
        for head in 0..2 {
            let device = placement.device_of(head);
            let run_len = store.shared_block_run(device, &seqs);
            assert_eq!(run_len, 2, "head {head}");
            for i in 0..seqs.len() {
                solo_units.push(solo(solo_units.len(), head, device, i));
            }
            grouped.push(WorkUnit {
                unit: head,
                head,
                device,
                prefix_blocks: run_len,
                sharers: vec![0, 1, 2],
            });
        }
        let (solo_out, solo_ops) = run(&solo_units, &seqs, 1, &mut store);
        assert!(solo_out.iter().all(Result::is_ok));
        for threads in [1, 2 * 2] {
            let (group_out, group_ops) = run(&grouped, &seqs, threads, &mut store);
            assert_eq!(group_out, solo_out, "threads={threads}");
            assert!(
                group_ops.total() < solo_ops.total(),
                "the cascade walk must dedup dequant work"
            );
        }
    }

    #[test]
    fn misrouted_unit_is_rejected_with_typed_error() {
        // Head 0 lives on device 0 under head-modulo; claim device 1 for
        // sequence 0's head-0 unit. Sequence 0 fails typed; sequence 1
        // completes exactly as in a correct launch.
        let (mut store, ids, units) = setup(2, 2);
        let clean = run(&units, &ids, 0, &mut store);
        let mut bad = units.clone();
        bad[0].device = DeviceId(1);
        for workers in [0usize, 2] {
            let (outputs, _) = run(&bad, &ids, workers * 2, &mut store);
            assert_eq!(
                outputs[0],
                Err(ServeError::Misrouted {
                    seq: ids[0],
                    head: 0,
                    routed: DeviceId(1),
                    owner: DeviceId(0),
                }),
                "workers={workers}"
            );
            assert_eq!(outputs[1], clean.0[1], "workers={workers}");
            // The failed launch left nothing behind.
            assert_eq!(run(&units, &ids, workers * 2, &mut store), clean);
        }
    }

    #[test]
    fn lowest_indexed_error_wins_at_every_thread_count() {
        // Units 0 and 1 are sequence 0's heads 0 and 1; swapping their
        // devices misroutes both. The sequence's error names unit 0
        // however the threads interleave, and sequence 1 completes.
        let (mut store, ids, mut units) = setup(2, 2);
        let clean = run(&units, &ids, 0, &mut store);
        units[0].device = DeviceId(1);
        units[1].device = DeviceId(0);
        for threads in 0..=5 {
            for _ in 0..8 {
                let (outputs, _) = run(&units, &ids, threads, &mut store);
                assert_eq!(
                    outputs[0],
                    Err(ServeError::Misrouted {
                        seq: ids[0],
                        head: 0,
                        routed: DeviceId(1),
                        owner: DeviceId(0),
                    }),
                    "threads={threads}"
                );
                assert_eq!(outputs[1], clean.0[1], "threads={threads}");
            }
        }
    }

    #[test]
    fn the_last_unit_appends_in_window_what_append_step_appends() {
        // Each sequence's epilogue appends its model's rows on the launch;
        // a twin store takes the same rows through `append_step`. With
        // sequence 0's head-0 unit misrouted, sequence 0 appends nothing.
        let codec = decoder().codec();
        for (devices, misroute) in [(1usize, false), (2, false), (2, true)] {
            for threads in [0usize, 1, 3] {
                let (mut store, ids, mut units) = setup(devices, 2);
                let (mut twin, _, _) = setup(devices, 2);
                if misroute {
                    units[0].device = DeviceId(1);
                }
                let (outs, _) = launch_echo(&units, &ids, threads, &mut store, true);
                // The rows Echo appends: its output, read back unappended.
                let (echoed, _) = run(&units, &ids, threads, &mut twin);
                for (i, (&seq, (out, output))) in
                    ids.iter().zip(outs.into_iter().zip(echoed)).enumerate()
                {
                    if misroute && i == 0 {
                        assert!(out.is_err() && output.is_err());
                        continue;
                    }
                    assert_eq!(
                        out,
                        Ok(SeqOut::Appended(0)),
                        "devices={devices} threads={threads}"
                    );
                    let output = output.unwrap();
                    let (v, k) = output.split_at(2);
                    twin.append_step(seq, k, v, &codec).unwrap();
                }
                for &seq in &ids {
                    assert_eq!(store.seq_len(seq), twin.seq_len(seq));
                    for h in 0..2 {
                        assert_eq!(store.residual(seq, h), twin.residual(seq, h));
                    }
                }
            }
        }
    }
}
