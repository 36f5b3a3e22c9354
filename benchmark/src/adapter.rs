//! The benchmark's only contact with the repository's crates.
//!
//! Everything that names a `bd_*` item lives here, so a PR that renames,
//! merges or deletes a repo API has exactly one benchmark file to follow
//! up in, and the rest of the benchmark (generation, timing, statistics,
//! reporting) cannot drift with the code it referees. The serve surface
//! is kept as narrow as it goes: `submit_at`, `step`, `stream`,
//! `is_finished`/`is_failed`, `store`, `with_obs`, `with_policy`.
//!
//! Nothing in this file reads a clock except [`timed`], which the probe
//! closures use to bracket exactly one public call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bd_core::{
    attend_packed_blocks_fused, attend_residual_fused, AttentionConfig, BitDecoder, DecodeShape,
    FragmentCodec, MatmulEngine, OnlineSoftmax, PrefixSharer, QueryHeads,
};
use bd_gpu_sim::GpuArch;
use bd_kvcache::{
    BlockCodec, CacheConfig, PackLayout, PackedBlock, PagedKvStore, Partitioning, QuantScheme,
    TokenMatrix,
};
use bd_lowbit::{fastpath, pack_u32, quantize_group, BitWidth, PackOrder, QuantParams};
use bd_obs::{ClockDomain, ObsConfig};
use bd_serve::{
    replay_contiguous, FcfsPreempt, SequenceModel, ServeConfig, ServeSession, StepKv, SynthSequence,
};

use crate::gen::{Codec, RequestSpec, WorkloadSpec, PAGE_TOKENS};

pub use bd_obs::json::{escape as json_escape, parse as json_parse, JsonValue};

fn scheme_of(codec: Codec) -> QuantScheme {
    match codec {
        Codec::Kc4 => QuantScheme::kc4(),
        Codec::Kc2 => QuantScheme::kc2(),
    }
}

fn attention_of(spec: &WorkloadSpec) -> AttentionConfig {
    let (hq, hkv, d) = spec.heads;
    AttentionConfig::gqa(hq, hkv, d)
}

fn decoder_for(attn: AttentionConfig, scheme: QuantScheme) -> BitDecoder {
    BitDecoder::builder(GpuArch::rtx4090())
        .attention(attn)
        .scheme(scheme)
        .paged(true)
        .build()
}

/// A prompt's K/V, one `tokens × d` matrix per KV head.
#[derive(Clone)]
pub struct PromptKv {
    k: Vec<TokenMatrix>,
    v: Vec<TokenMatrix>,
}

/// Generates a request's prompt K/V. The serve runtime would otherwise
/// hash every element inside the admission step; doing it here puts that
/// cost in `setup_s` and leaves TTFT to the program's own work.
pub fn generate_prompt(spec: &WorkloadSpec, req: &RequestSpec) -> PromptKv {
    let (k, v) = synth(spec, req, 1).prompt();
    PromptKv { k, v }
}

fn synth(spec: &WorkloadSpec, req: &RequestSpec, gen: usize) -> SynthSequence {
    SynthSequence::forked(
        attention_of(spec),
        req.prompt_seed,
        req.gen_seed,
        req.prompt_len,
        gen,
    )
}

/// A [`SynthSequence`] whose prompt was generated ahead of time:
/// `prompt()` hands over the request's own pre-generated matrices — a
/// move, so not even a copy lands inside the admission step — and
/// everything else delegates. Should the runtime ask for the prompt again
/// (recompute-from-prompt recovery; no workload here triggers it) the
/// inner model regenerates the identical values.
struct PregenSequence {
    inner: SynthSequence,
    prompt: Option<PromptKv>,
}

impl SequenceModel for PregenSequence {
    fn prompt(&mut self) -> (Vec<TokenMatrix>, Vec<TokenMatrix>) {
        match self.prompt.take() {
            Some(p) => (p.k, p.v),
            None => self.inner.prompt(),
        }
    }
    fn prompt_tokens(&self) -> usize {
        self.inner.prompt_tokens()
    }
    fn gen_tokens(&self) -> usize {
        self.inner.gen_tokens()
    }
    fn query(&mut self, step: usize) -> QueryHeads {
        self.inner.query(step)
    }
    fn advance(&mut self, step: usize, output: &QueryHeads) -> StepKv {
        self.inner.advance(step, output)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The first `tokens` tokens the request must emit, from the repository's
/// own oracle: an uninterrupted single-sequence decode over a contiguous
/// cache, driven by a plain `SynthSequence` (so the pre-generated prompt
/// path is checked too). Using the oracle rather than stored hashes keeps
/// the check valid across a PR that moves runtime *and* oracle onto a new
/// summation order together.
pub fn oracle_stream(spec: &WorkloadSpec, req: &RequestSpec, tokens: usize) -> Vec<u32> {
    let decoder = decoder_for(attention_of(spec), scheme_of(spec.codec));
    replay_contiguous(&decoder, &mut synth(spec, req, tokens.min(req.gen)))
}

/// What one decode step reported, copied out of the program's step
/// metrics. All counts are exact and repeat across runs; `modeled_*` are
/// simulated-GPU seconds from the cost model, never host time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepSample {
    /// Step index on the session clock (jumps over idle gaps).
    pub index: usize,
    /// Sequences decoded.
    pub batch: usize,
    /// Fresh admissions (prefills) in this step.
    pub admitted: usize,
    /// Swapped-out sequences resumed in this step.
    pub resumed: usize,
    /// Sequences preempted in this step.
    pub preempted: usize,
    /// Σ context length over the batch.
    pub kv_tokens: usize,
    /// KV tokens actually walked (a shared prefix counts once).
    pub walked_tokens: usize,
    /// `(sequence | group, head, device)` work units fanned out.
    pub units: usize,
    /// Fast-dequant instructions streamed by the packed kernel.
    pub dequant_ops: u64,
    /// Pages allocated after the step, summed over devices.
    pub physical_pages: usize,
    /// Page-table entries after the step, summed over devices.
    pub logical_pages: usize,
    /// Sequences that retired in this step.
    pub completed: usize,
    /// Cascade shared-prefix groups formed.
    pub shared_attn_groups: usize,
    /// Page walks the cascade kernel saved.
    pub prefix_pages_walked_saved: usize,
    /// Prefix-cache admissions that adopted pages / found nothing.
    pub prefix_hits: usize,
    /// See `prefix_hits`.
    pub prefix_misses: usize,
    /// Pages adopted from the prefix cache.
    pub prefix_pages_reused: usize,
    /// Prefix-cache subtrees evicted.
    pub prefix_subtrees_evicted: usize,
    /// Bytes swapped to or from the host.
    pub swap_bytes: f64,
    /// Modeled kernel time of the step, simulated seconds.
    pub modeled_step_s: f64,
    /// Modeled all-reduce time, simulated seconds.
    pub modeled_interconnect_s: f64,
    /// Modeled swap transfer time, simulated seconds.
    pub modeled_swap_s: f64,
}

/// One span recorded by the program's own tracer.
#[derive(Clone, Debug)]
pub struct SessionSpan {
    /// Span name (`step`, `admission`, `fan_out`, `merge`, `append`,
    /// `execute`, `shared_attn`, …).
    pub name: &'static str,
    /// 0 = the session thread, `1 + d` = device `d`'s workers.
    pub lane: u32,
    /// `true` for spans on the modeled (simulated-GPU) timeline.
    pub modeled: bool,
    /// Start, µs since the tracer's epoch on the span's own timeline.
    pub begin_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Numeric annotations.
    pub args: Vec<(&'static str, f64)>,
}

/// A serve session built for one pass of a workload.
pub struct Engine {
    session: ServeSession,
}

impl Engine {
    /// Builds the decoder and session a workload asks for. `span_capacity`
    /// switches the program's span tracer on with a ring of that size.
    pub fn new(spec: &WorkloadSpec, span_capacity: Option<usize>) -> Engine {
        let decoder = decoder_for(attention_of(spec), scheme_of(spec.codec));
        let config = ServeConfig::new(
            spec.pages_per_device,
            PAGE_TOKENS,
            spec.workers_per_device,
            spec.max_batch,
        )
        .with_devices(spec.devices, Partitioning::HeadModulo);
        let mut session = ServeSession::new(decoder, config);
        if spec.preempt {
            session = session.with_policy(FcfsPreempt::default());
        }
        if let Some(capacity) = span_capacity {
            session = session.with_obs(
                ObsConfig::off()
                    .with_spans(true)
                    .with_span_capacity(capacity),
            );
        }
        Engine { session }
    }

    /// Queues a request for its arrival step; `Err` carries the refusal.
    pub fn submit_at(
        &mut self,
        spec: &WorkloadSpec,
        req: &RequestSpec,
        prompt: PromptKv,
    ) -> Result<u64, String> {
        let model = PregenSequence {
            inner: synth(spec, req, req.gen),
            prompt: Some(prompt),
        };
        self.session
            .submit_at(req.arrival_step, Box::new(model))
            .map_err(|e| e.to_string())
    }

    /// Runs one decode step; `None` once the session has drained.
    pub fn step(&mut self) -> Option<StepSample> {
        let m = self.session.step()?;
        Some(StepSample {
            index: m.step,
            batch: m.batch,
            admitted: m.admitted,
            resumed: m.resumed,
            preempted: m.preempted,
            kv_tokens: m.kv_tokens,
            walked_tokens: m.per_device.iter().map(|d| d.kv_tokens).sum(),
            units: m.per_device.iter().map(|d| d.units).sum(),
            dequant_ops: u64::from(m.dequant.lop3)
                + u64::from(m.dequant.shifts)
                + u64::from(m.dequant.hfma2),
            physical_pages: m.physical_pages,
            logical_pages: m.logical_pages,
            completed: m.completed,
            shared_attn_groups: m.shared_attn_groups,
            prefix_pages_walked_saved: m.prefix_pages_walked_saved,
            prefix_hits: m.prefix_cache_hits,
            prefix_misses: m.prefix_cache_misses,
            prefix_pages_reused: m.prefix_pages_reused,
            prefix_subtrees_evicted: m.prefix_subtrees_evicted,
            swap_bytes: m.swap_bytes,
            modeled_step_s: m.modeled_step_s,
            modeled_interconnect_s: m.modeled_interconnect_s,
            modeled_swap_s: m.modeled_swap_s,
        })
    }

    /// Tokens the request has emitted so far.
    pub fn stream_len(&self, id: u64) -> usize {
        self.session.stream(id).map_or(0, <[u32]>::len)
    }

    /// The request's token stream so far.
    pub fn stream(&self, id: u64) -> Vec<u32> {
        self.session
            .stream(id)
            .map_or_else(Vec::new, <[u32]>::to_vec)
    }

    /// Whether the request ran to completion.
    pub fn is_finished(&self, id: u64) -> bool {
        self.session.is_finished(id)
    }

    /// Whether the runtime gave up on the request.
    pub fn is_failed(&self, id: u64) -> bool {
        self.session.is_failed(id)
    }

    /// Copy-on-write page privatisations since the session started.
    pub fn cow_breaks(&self) -> usize {
        self.session.store().cow_breaks()
    }

    /// "Now" on the program tracer's wall clock, µs — read next to the
    /// benchmark's own clock to line the two timelines up.
    pub fn tracer_now_us(&self) -> f64 {
        self.session.tracer().clock().wall_us()
    }

    /// The program tracer's spans and how many it had to drop.
    pub fn session_spans(&self) -> (Vec<SessionSpan>, u64) {
        let tracer = self.session.tracer();
        let spans = tracer
            .snapshot()
            .into_iter()
            .map(|s| SessionSpan {
                name: s.name,
                lane: s.lane,
                modeled: s.domain == ClockDomain::Modeled,
                begin_us: s.begin_us,
                dur_us: s.dur_us,
                args: s.args,
            })
            .collect();
        (spans, tracer.dropped())
    }
}

// ---------------------------------------------------------------------
// Direct layer probes.
// ---------------------------------------------------------------------

/// Times exactly one call.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    let out = f();
    let dt = t.elapsed();
    std::hint::black_box(out);
    dt
}

/// A direct probe of one public function on a fixed shape.
pub struct Probe {
    /// The per-layer metric this probe reports.
    pub metric: &'static str,
    /// Work items (elements, tokens, pages, calls) one run covers; the
    /// metric is run time divided by this.
    pub per_run: f64,
    /// One timed run: returns the time spent inside the probed call(s),
    /// with any state reset around them left out.
    pub run: Box<dyn FnMut() -> Duration>,
}

/// Numbers the probes' shapes fix exactly (no timing involved).
pub struct ProbeConstants {
    /// Fast-dequant instructions per packed KV token, KC-4 / KC-2.
    pub dequant_ops_per_tok: [f64; 2],
    /// Device bytes per (head, token) of a resident sequence, KC-4 / KC-2
    /// — packed payload plus quantization metadata.
    pub resident_bytes_per_head_tok: [f64; 2],
    /// Bytes (packed payload + metadata) the fused attention probe
    /// streams per call at KC-4 — *computed* from block sizes, for the
    /// roofline ratio.
    pub attend_fused_bytes_kc4: f64,
}

/// Shape shared by the probes: 4 KV heads, `d = 64`, `g_q = 2`.
const HEADS_KV: usize = 4;
const HEAD_DIM: usize = 64;
const GROUP_Q: usize = 2;
/// Context the read-side probes walk.
pub const PROBE_READ_TOKENS: usize = 32_768;
/// Tokens the write-side (quantize + pack) probes process per run: their
/// cost is linear in tokens, and 8 K keeps the whole probe set to a few
/// seconds.
pub const PROBE_WRITE_TOKENS: usize = 8192;
/// Cascade probe: sharers over a common prefix.
const MULTI_SHARERS: usize = 16;
const MULTI_PREFIX_TOKENS: usize = 8192;

fn wave(tokens: usize, dim: usize, freq: f32) -> TokenMatrix {
    TokenMatrix::from_fn(tokens, dim, |t, c| {
        ((t * dim + c) as f32 * freq).sin() * 2.0
    })
}

fn query_block() -> Vec<Vec<f32>> {
    (0..GROUP_Q)
        .map(|g| {
            (0..HEAD_DIM)
                .map(|c| ((g * HEAD_DIM + c) as f32 * 0.71).sin())
                .collect()
        })
        .collect()
}

fn encode_blocks(
    codec: &FragmentCodec,
    scheme: QuantScheme,
    nr: usize,
    tokens: usize,
) -> Vec<PackedBlock> {
    (0..tokens / nr)
        .map(|b| {
            let k = wave(nr, HEAD_DIM, 0.37 + b as f32 * 1e-4);
            let v = wave(nr, HEAD_DIM, 0.53 + b as f32 * 1e-4);
            codec.encode(&k, &v, scheme)
        })
        .collect()
}

/// A single-device paged store holding one `tokens`-token sequence.
fn filled_store(
    scheme: QuantScheme,
    tokens: usize,
    prefix_cache: bool,
) -> (
    PagedKvStore,
    bd_kvcache::SeqId,
    Vec<TokenMatrix>,
    Vec<TokenMatrix>,
) {
    let layout = PackLayout::sm80_default();
    let codec = FragmentCodec::new(layout);
    let config = CacheConfig::new(HEAD_DIM, scheme, layout);
    let pages = 4 * tokens.div_ceil(PAGE_TOKENS) + 16;
    let mut store = PagedKvStore::new(config, HEADS_KV, pages, PAGE_TOKENS);
    store.set_prefix_cache(prefix_cache);
    let k: Vec<TokenMatrix> = (0..HEADS_KV)
        .map(|h| wave(tokens, HEAD_DIM, 0.31 + h as f32 * 0.01))
        .collect();
    let v: Vec<TokenMatrix> = (0..HEADS_KV)
        .map(|h| wave(tokens, HEAD_DIM, 0.47 + h as f32 * 0.01))
        .collect();
    let (seq, _) = store
        .admit_prefill_cached(&k, &v, tokens + PAGE_TOKENS, &codec)
        .expect("probe store sized for its sequence");
    (store, seq, k, v)
}

/// Builds every direct probe plus the exact constants of their shapes.
/// Set-up (encoding blocks, filling stores) happens here, untimed.
pub fn build_probes() -> (Vec<Probe>, ProbeConstants) {
    let layout = PackLayout::sm80_default();
    let codec = FragmentCodec::new(layout);
    let attn = AttentionConfig::gqa(HEADS_KV * GROUP_Q, HEADS_KV, HEAD_DIM);
    let scale = attn.scale();
    let schemes = [
        ("kc4", QuantScheme::kc4(), BitWidth::B4),
        ("kc2", QuantScheme::kc2(), BitWidth::B2),
    ];
    let mut probes: Vec<Probe> = Vec::new();
    let mut add = |metric: &'static str, per_run: usize, run: Box<dyn FnMut() -> Duration>| {
        probes.push(Probe {
            metric,
            per_run: per_run as f64,
            run,
        });
    };

    // --- lowbit ------------------------------------------------------
    const GROUP: usize = 4096;
    const GROUPS: usize = 64;
    let values: Vec<f32> = (0..GROUP).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
    for (metric, width) in [
        ("lowbit.quantize_ns_per_elem.b4", BitWidth::B4),
        ("lowbit.quantize_ns_per_elem.b2", BitWidth::B2),
    ] {
        let values = values.clone();
        add(
            metric,
            GROUP * GROUPS,
            Box::new(move || {
                timed(|| {
                    for _ in 0..GROUPS {
                        std::hint::black_box(quantize_group(std::hint::black_box(&values), width));
                    }
                })
            }),
        );
    }
    const REGS: usize = 1 << 16;
    let codes: Vec<u8> = (0..8).collect();
    add(
        "lowbit.pack_ns_per_elem.b4",
        REGS * 8,
        Box::new(move || {
            timed(|| {
                for _ in 0..REGS {
                    std::hint::black_box(pack_u32(
                        std::hint::black_box(&codes),
                        BitWidth::B4,
                        PackOrder::FastDequant,
                    ));
                }
            })
        }),
    );
    for (metric, width, per_reg) in [
        ("lowbit.dequant_register_ns_per_elem.b4", BitWidth::B4, 8),
        ("lowbit.dequant_register_ns_per_elem.b2", BitWidth::B2, 16),
    ] {
        let params = QuantParams::from_min_max(-2.0, 2.0, width);
        add(
            metric,
            REGS * per_reg,
            Box::new(move || {
                timed(|| {
                    for r in 0..REGS as u32 {
                        std::hint::black_box(fastpath::dequant_register(
                            std::hint::black_box(r.wrapping_mul(0x9E37_79B9)),
                            width,
                            params,
                        ));
                    }
                })
            }),
        );
    }

    // --- core --------------------------------------------------------
    let q = query_block();
    let mut constants = ProbeConstants {
        dequant_ops_per_tok: [0.0; 2],
        resident_bytes_per_head_tok: [0.0; 2],
        attend_fused_bytes_kc4: 0.0,
    };
    // The KC-4 blocks are walked again by the split-K and cascade probes.
    let mut kc4_blocks: Arc<Vec<PackedBlock>> = Arc::default();
    for (i, (tag, scheme, width)) in schemes.into_iter().enumerate() {
        let nr = layout.residual_block(width);
        let blocks = Arc::new(encode_blocks(&codec, scheme, nr, PROBE_READ_TOKENS));
        if tag == "kc4" {
            kc4_blocks = Arc::clone(&blocks);
        }
        let metric = |kc4: &'static str, kc2: &'static str| if tag == "kc4" { kc4 } else { kc2 };

        let (k, v) = (wave(nr, HEAD_DIM, 0.37), wave(nr, HEAD_DIM, 0.53));
        let n_blocks = PROBE_WRITE_TOKENS / nr;
        add(
            metric("core.encode_ns_per_tok.kc4", "core.encode_ns_per_tok.kc2"),
            PROBE_WRITE_TOKENS,
            Box::new(move || {
                timed(|| {
                    for _ in 0..n_blocks {
                        std::hint::black_box(codec.encode(
                            std::hint::black_box(&k),
                            std::hint::black_box(&v),
                            scheme,
                        ));
                    }
                })
            }),
        );

        let b = Arc::clone(&blocks);
        add(
            metric(
                "core.decode_block_fused_ns_per_tok.kc4",
                "core.decode_block_fused_ns_per_tok.kc2",
            ),
            PROBE_READ_TOKENS,
            Box::new(move || {
                let mut kb = TokenMatrix::new(0);
                let mut vb = TokenMatrix::new(0);
                timed(|| {
                    for block in b.iter() {
                        std::hint::black_box(
                            codec.decode_block_fused(block, scheme, &mut kb, &mut vb),
                        );
                    }
                })
            }),
        );

        let (b, qb) = (Arc::clone(&blocks), q.clone());
        add(
            metric(
                "core.attend_fused_ns_per_tok.kc4",
                "core.attend_fused_ns_per_tok.kc2",
            ),
            PROBE_READ_TOKENS,
            Box::new(move || {
                let mut state = OnlineSoftmax::new(GROUP_Q, HEAD_DIM);
                timed(|| {
                    attend_packed_blocks_fused(
                        &qb,
                        std::hint::black_box(b.as_slice()),
                        &codec,
                        scheme,
                        scale,
                        MatmulEngine::Mma,
                        &mut state,
                    )
                })
            }),
        );

        // Exact, from the kernel's own instruction counts and block sizes.
        let mut state = OnlineSoftmax::new(GROUP_Q, HEAD_DIM);
        let ops = attend_packed_blocks_fused(
            &q,
            blocks.as_slice(),
            &codec,
            scheme,
            scale,
            MatmulEngine::Mma,
            &mut state,
        );
        constants.dequant_ops_per_tok[i] = f64::from(ops.total()) / PROBE_READ_TOKENS as f64;
        if tag == "kc4" {
            constants.attend_fused_bytes_kc4 =
                blocks.iter().map(|b| b.byte_size() as f64).sum::<f64>();
        }
    }

    let res_k = wave(127, HEAD_DIM, 0.29);
    let res_v = wave(127, HEAD_DIM, 0.43);
    const RESIDUAL_CALLS: usize = 256;
    {
        let (qb, rk, rv) = (q.clone(), res_k.clone(), res_v.clone());
        add(
            "core.attend_residual_ns_per_tok",
            127 * RESIDUAL_CALLS,
            Box::new(move || {
                timed(|| {
                    for _ in 0..RESIDUAL_CALLS {
                        let mut state = OnlineSoftmax::new(GROUP_Q, HEAD_DIM);
                        attend_residual_fused(
                            &qb,
                            std::hint::black_box(&rk),
                            &rv,
                            scale,
                            MatmulEngine::Mma,
                            &mut state,
                        );
                        std::hint::black_box(state);
                    }
                })
            }),
        );
    }

    let decoder = Arc::new(decoder_for(attn, QuantScheme::kc4()));
    {
        let (dec, b, qb, rk, rv) = (
            Arc::clone(&decoder),
            Arc::clone(&kc4_blocks),
            q.clone(),
            res_k.clone(),
            res_v.clone(),
        );
        add(
            "core.attend_head_partial_ns_per_tok.kc4",
            PROBE_READ_TOKENS + 127,
            Box::new(move || timed(|| dec.attend_head_partial(&qb, b.as_slice(), &rk, &rv))),
        );
    }
    {
        let (dec, b, qb, rk, rv) = (
            Arc::clone(&decoder),
            Arc::clone(&kc4_blocks),
            q.clone(),
            res_k.clone(),
            res_v.clone(),
        );
        let prefix_blocks = MULTI_PREFIX_TOKENS / layout.residual_block(BitWidth::B4);
        add(
            "core.attend_multi_ns_per_sharer_tok.kc4",
            MULTI_SHARERS * MULTI_PREFIX_TOKENS,
            Box::new(move || {
                let sharers: Vec<PrefixSharer<'_, PackedBlock>> = (0..MULTI_SHARERS)
                    .map(|_| PrefixSharer {
                        q_block: &qb,
                        suffix: &[],
                        res_k: &rk,
                        res_v: &rv,
                    })
                    .collect();
                timed(|| dec.attend_head_partial_multi(&b[..prefix_blocks], &sharers))
            }),
        );
    }
    {
        let mut a = OnlineSoftmax::new(GROUP_Q, HEAD_DIM);
        let mut b = OnlineSoftmax::new(GROUP_Q, HEAD_DIM);
        attend_residual_fused(&q, &res_k, &res_v, scale, MatmulEngine::Mma, &mut a);
        attend_residual_fused(&q, &res_v, &res_k, scale, MatmulEngine::Mma, &mut b);
        const MERGES: usize = 2000;
        add(
            "core.softmax_merge_us",
            MERGES,
            Box::new(move || {
                timed(|| {
                    for _ in 0..MERGES {
                        std::hint::black_box(OnlineSoftmax::merge(vec![a.clone(), b.clone()]));
                    }
                })
            }),
        );
    }

    // --- kvcache -----------------------------------------------------
    for (i, (tag, scheme, width)) in schemes.into_iter().enumerate() {
        let (mut store, seq, k, v) = filled_store(scheme, PROBE_WRITE_TOKENS, false);
        constants.resident_bytes_per_head_tok[i] =
            store.seq_bytes(seq) as f64 / (HEADS_KV * PROBE_WRITE_TOKENS) as f64;
        store.evict(seq);
        add(
            if tag == "kc4" {
                "kvcache.prefill_ns_per_head_tok.kc4"
            } else {
                "kvcache.prefill_ns_per_head_tok.kc2"
            },
            HEADS_KV * PROBE_WRITE_TOKENS,
            Box::new(move || {
                let seq = store
                    .admit(PROBE_WRITE_TOKENS)
                    .expect("probe pool holds one sequence");
                let dt = timed(|| store.prefill(seq, &k, &v, &codec).expect("probe prefill"));
                store.evict(seq);
                dt
            }),
        );
        if tag == "kc4" {
            // 4·Nr appends so the Nr-th-token seal (quantize + pack of a
            // whole block) is amortised into the per-token figure.
            let appends = 4 * layout.residual_block(width);
            let config = CacheConfig::new(HEAD_DIM, scheme, layout);
            let mut store = PagedKvStore::new(config, HEADS_KV, 64, PAGE_TOKENS);
            let rows: Vec<Vec<f32>> = (0..HEADS_KV)
                .map(|h| wave(1, HEAD_DIM, 0.19 + h as f32 * 0.01).row(0).to_vec())
                .collect();
            add(
                "kvcache.append_step_ns_per_head_tok.kc4",
                HEADS_KV * appends,
                Box::new(move || {
                    let seq = store.admit(appends).expect("probe pool holds one sequence");
                    let dt = timed(|| {
                        for _ in 0..appends {
                            store
                                .append_step(seq, &rows, &rows, &codec)
                                .expect("probe append");
                        }
                    });
                    store.evict(seq);
                    dt
                }),
            );
        }
    }
    {
        let (store, seq, _, _) = filled_store(QuantScheme::kc4(), PROBE_READ_TOKENS, false);
        const GATHERS: usize = 2000;
        add(
            "kvcache.packed_blocks_us_per_call",
            GATHERS,
            Box::new(move || {
                timed(|| {
                    for _ in 0..GATHERS {
                        std::hint::black_box(store.packed_blocks(std::hint::black_box(seq), 0));
                    }
                })
            }),
        );
    }
    let pages = PROBE_WRITE_TOKENS / PAGE_TOKENS;
    {
        let (mut store, mut seq, _, _) =
            filled_store(QuantScheme::kc4(), PROBE_WRITE_TOKENS, false);
        add(
            "kvcache.swap_out_us_per_page",
            pages,
            Box::new(move || {
                let mut blob = None;
                let dt = timed(|| blob = Some(store.swap_out(seq).expect("probe swap-out")));
                seq = store
                    .swap_in(blob.as_ref().expect("set above"))
                    .expect("probe swap-in");
                dt
            }),
        );
    }
    {
        let (mut store, mut seq, _, _) =
            filled_store(QuantScheme::kc4(), PROBE_WRITE_TOKENS, false);
        add(
            "kvcache.swap_in_us_per_page",
            pages,
            Box::new(move || {
                let blob = store.swap_out(seq).expect("probe swap-out");
                timed(|| seq = store.swap_in(&blob).expect("probe swap-in"))
            }),
        );
    }
    {
        // The first admission registered the prompt's pages; every
        // further identical admission is a full hit.
        let (mut store, _seq, k, v) = filled_store(QuantScheme::kc4(), PROBE_WRITE_TOKENS, true);
        add(
            "kvcache.radix_adopt_us_per_page",
            pages,
            Box::new(move || {
                let mut admitted = None;
                let dt = timed(|| {
                    admitted = Some(
                        store
                            .admit_prefill_cached(&k, &v, PROBE_WRITE_TOKENS + PAGE_TOKENS, &codec)
                            .expect("probe adopt"),
                    );
                });
                let (seq, adopted) = admitted.expect("set above");
                assert_eq!(adopted.pages_reused, pages, "radix probe must fully hit");
                store.evict(seq);
                dt
            }),
        );
    }
    {
        let (mut store, parent, _, _) = filled_store(QuantScheme::kc4(), PROBE_WRITE_TOKENS, false);
        add(
            "kvcache.fork_us",
            1,
            Box::new(move || {
                let mut child = None;
                let dt = timed(|| {
                    child = Some(
                        store
                            .fork(parent, PROBE_WRITE_TOKENS, PROBE_WRITE_TOKENS + PAGE_TOKENS)
                            .expect("probe fork"),
                    );
                });
                store.evict(child.expect("set above"));
                dt
            }),
        );
    }

    // --- gpu-sim -----------------------------------------------------
    {
        let dec = Arc::clone(&decoder);
        let shape = DecodeShape::new(8, attn, PROBE_READ_TOKENS);
        const EVALS: usize = 200;
        add(
            "gpu-sim.latency_eval_us",
            EVALS,
            Box::new(move || {
                timed(|| {
                    for _ in 0..EVALS {
                        std::hint::black_box(dec.latency(std::hint::black_box(&shape)));
                    }
                })
            }),
        );
    }

    (probes, constants)
}
