//! Property tests for the batched decode runtime.
//!
//! The load-bearing properties from the serve design:
//!
//! 1. **Paged = contiguous, bitwise** — for any page size and any eviction
//!    order of finished sequences, decoding through [`PagedKvStore`]'s
//!    page-table indirection produces outputs identical to the contiguous
//!    [`BitDecoder::decode`] path, bit for bit.
//! 2. **Worker-count invariance** — the batch scheduler's token streams do
//!    not depend on how many threads the persistent pool runs (including
//!    the inline `workers = 0` mode).
//! 3. **Sharded = single-device, bitwise** — for any device count (1–8),
//!    head partitioning, page size, and worker count, decoding over
//!    [`ShardedKvStore`]'s per-device arenas with the per-head all-reduce
//!    merge produces token streams identical to the single-device session
//!    and to per-sequence contiguous replay, bit for bit.
//! 4. **Preemption is invisible in the values** — any interleaving of
//!    preempt / swap-out / swap-in produced by any scheduling policy
//!    yields token streams bitwise identical to uninterrupted contiguous
//!    decode, for devices 1–4 × partitioning × page size; and the
//!    storage-level swap round trip itself is bitwise at any page size,
//!    paged and sharded.
//! 5. **Chaos is invisible in the values** — any *seeded fault schedule*
//!    (device losses, swap-blob corruption, transient link failures,
//!    timed pool exhaustion) layered over any policy × devices 1–4 ×
//!    partitioning × page size × fork/preempt interleaving still
//!    completes every request with streams bitwise identical to
//!    uninterrupted contiguous replay, and leaks no pages.
//! 6. **Grouping is invisible in the values** — cascade shared-prefix
//!    grouping (walking shared packed prefix pages once per group) on
//!    vs off produces bitwise identical streams under the same
//!    fork/preempt/fault interleavings, both equal to contiguous
//!    replay; disabling the gate forms zero groups.
//! 7. **Content dedup is invisible in the values** — the radix prefix
//!    cache on vs off produces bitwise identical streams for
//!    identical-prompt tenants (no `fork` anywhere) under faults,
//!    preemption, and eviction, both equal to contiguous replay; on a
//!    fault-free schedule every tenant after the first must hit.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::too_many_lines)]

use bd_core::{query_transform, AttentionConfig, BitDecoder};
use bd_gpu_sim::GpuArch;
use bd_kvcache::{
    DeviceId, PagedKvStore, Partitioning, Placement, QuantScheme, SeqId, ShardedKvStore,
};
use bd_serve::{
    replay_contiguous, FaultPlan, FcfsPreempt, SequenceModel, ServeConfig, ServeMetrics,
    ServeSession, ShortestRemainingFirst, SynthSequence,
};
use proptest::prelude::*;

const ATTN: AttentionConfig = AttentionConfig {
    heads_q: 4,
    heads_kv: 2,
    head_dim: 16,
};

fn decoder(scheme: QuantScheme) -> BitDecoder {
    BitDecoder::builder(GpuArch::rtx4090())
        .attention(ATTN)
        .scheme(scheme)
        .paged(true)
        .build()
}

fn arb_scheme() -> impl Strategy<Value = QuantScheme> {
    prop_oneof![Just(QuantScheme::kc4()), Just(QuantScheme::kc2())]
}

/// Mirrors one synthetic sequence into the paged store and a contiguous
/// cache, decoding one step after every append through both paths and
/// asserting bitwise equality throughout.
fn drive_mirrored(
    dec: &BitDecoder,
    store: &mut PagedKvStore,
    seed: u64,
    prompt: usize,
    gen: usize,
) -> Result<SeqId, String> {
    let codec = dec.codec();
    let mut paged_model = SynthSequence::new(ATTN, seed, prompt, gen);
    let seq = store.admit(prompt + gen).expect("pool sized for the case");
    {
        let (pk, pv) = paged_model.prompt();
        store.prefill(seq, &pk, &pv, &codec).unwrap();
    }
    let mut cache = dec.new_cache(1);
    let mut contiguous_model = SynthSequence::new(ATTN, seed, prompt, gen);
    {
        let (pk, pv) = contiguous_model.prompt();
        for h in 0..ATTN.heads_kv {
            cache.prefill(h, &pk[h], &pv[h], &codec).unwrap();
        }
    }
    for step in 0..gen {
        // Paged path: per-head attention over page-table-gathered blocks.
        let q = paged_model.query(step);
        let grouped = query_transform(&q, &ATTN);
        let mut heads_out = Vec::new();
        for (kv, q_block) in grouped.iter().enumerate() {
            let blocks = store.packed_blocks(seq, kv);
            let (rk, rv) = store.residual(seq, kv);
            let (rows, _) = dec.attend_head(q_block, &blocks, rk, rv);
            heads_out.push(rows);
        }
        let paged_out = bd_core::ungroup_outputs(&heads_out, &ATTN);

        // Contiguous path: the decode front end.
        let cq = contiguous_model.query(step);
        let cont_out = dec.decode(std::slice::from_ref(&cq), &cache).unwrap();

        prop_assert_eq!(&paged_out, &cont_out.outputs[0], "step {}", step);

        let pkv = paged_model.advance(step, &paged_out);
        let ckv = contiguous_model.advance(step, &cont_out.outputs[0]);
        prop_assert_eq!(pkv.token, ckv.token);
        store.append_step(seq, &pkv.k, &pkv.v, &codec).unwrap();
        for h in 0..ATTN.heads_kv {
            cache.append_token(h, &ckv.k[h], &ckv.v[h], &codec).unwrap();
        }
        prop_assert!(
            store.matches_cache(seq, &cache, 0),
            "contiguous-equivalence violated at step {}",
            step
        );
    }
    Ok(seq)
}

/// Eight KV heads so device counts up to 8 are all distinct placements.
const ATTN_WIDE: AttentionConfig = AttentionConfig {
    heads_q: 8,
    heads_kv: 8,
    head_dim: 16,
};

/// Four KV heads: device counts 1–4 are all distinct placements (the
/// preemption property's required range) at half the width of
/// [`ATTN_WIDE`].
const ATTN_QUAD: AttentionConfig = AttentionConfig {
    heads_q: 4,
    heads_kv: 4,
    head_dim: 16,
};

fn arb_partitioning() -> impl Strategy<Value = Partitioning> {
    prop_oneof![
        Just(Partitioning::HeadModulo),
        Just(Partitioning::HeadContiguous),
        Just(Partitioning::Weighted),
    ]
}

proptest! {
    /// The full tensor-parallel session: for ANY device count (1–8), head
    /// partitioning, page size, and worker count, the sharded session's
    /// token streams equal the single-device session's AND the
    /// per-sequence contiguous replay, bit for bit.
    #[test]
    fn sharded_session_matches_single_device_bitwise(
        devices in 1usize..9,
        partitioning in arb_partitioning(),
        page_tokens in 1usize..160,
        workers in 0usize..3,
        n_seqs in 1usize..4,
        scheme in arb_scheme(),
        seed: u64,
    ) {
        let prompt = |i: usize| 60 + 47 * i;
        let streams_at = |devices: usize, partitioning: Partitioning, workers: usize| {
            // Per-device pages for the largest request, times the batch.
            let pages = n_seqs * 230usize.div_ceil(page_tokens) + 1;
            let config = ServeConfig::new(pages, page_tokens, workers, 8)
                .with_devices(devices, partitioning);
            let dec = BitDecoder::builder(GpuArch::rtx4090())
                .attention(ATTN_WIDE)
                .scheme(scheme)
                .paged(true)
                .build();
            let mut session = ServeSession::new(dec, config);
            let ids: Vec<_> = (0..n_seqs)
                .map(|i| {
                    session
                        .submit(Box::new(SynthSequence::new(
                            ATTN_WIDE, seed ^ i as u64, prompt(i), 2)))
                        .unwrap()
                })
                .collect();
            let summary = session.run_to_completion();
            assert_eq!(summary.completed, n_seqs);
            ids.iter().map(|id| session.stream(*id).unwrap().to_vec()).collect::<Vec<_>>()
        };
        let single = streams_at(1, partitioning, 0);
        prop_assert_eq!(
            &single,
            &streams_at(devices, partitioning, workers),
            "devices={} {:?} workers={}", devices, partitioning, workers
        );
        for (i, stream) in single.iter().enumerate() {
            let dec = BitDecoder::builder(GpuArch::rtx4090())
                .attention(ATTN_WIDE)
                .scheme(scheme)
                .paged(true)
                .build();
            let want = replay_contiguous(
                &dec,
                &mut SynthSequence::new(ATTN_WIDE, seed ^ i as u64, prompt(i), 2),
            );
            prop_assert_eq!(stream, &want, "sequence {}", i);
        }
    }

    /// Storage-level sharding invariant: for any device count and
    /// partitioning, every global head's blocks/residuals gathered from
    /// the sharded store equal the single-device [`PagedKvStore`]'s
    /// bitwise, and attention over the two gathers is identical.
    #[test]
    fn sharded_store_gathers_match_single_device_bitwise(
        devices in 1usize..9,
        partitioning in arb_partitioning(),
        page_tokens in 1usize..140,
        tokens in 1usize..300,
        seed: u64,
    ) {
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(ATTN_WIDE)
            .scheme(QuantScheme::kc4())
            .paged(true)
            .build();
        let codec = dec.codec();
        let heads = ATTN_WIDE.heads_kv;
        let pages = tokens.div_ceil(page_tokens) + 1;
        let placement = Placement::new(devices, partitioning, heads);
        let mut sharded = ShardedKvStore::new(dec.cache_config(), placement, pages, page_tokens);
        let mut single = PagedKvStore::new(dec.cache_config(), heads, pages, page_tokens);
        let pseq = single.admit(tokens).unwrap();
        let mut model = SynthSequence::new(ATTN_WIDE, seed, tokens, 1);
        let (pk, pv) = model.prompt();
        let (sseq, _) = sharded.admit_prefill_cached(&pk, &pv, tokens, &codec).unwrap();
        single.prefill(pseq, &pk, &pv, &codec).unwrap();

        let q = model.query(0);
        let grouped = query_transform(&q, &ATTN_WIDE);
        for (head, q_block) in grouped.iter().enumerate() {
            let sb = sharded.packed_blocks(sseq, head);
            let pb = single.packed_blocks(pseq, head);
            prop_assert_eq!(sb.len(), pb.len());
            for (a, b) in sb.iter().zip(&pb) {
                prop_assert!(*a == *b, "head {} block payload differs", head);
            }
            let (srk, srv) = sharded.residual(sseq, head);
            let (prk, prv) = single.residual(pseq, head);
            prop_assert_eq!(srk, prk);
            prop_assert_eq!(srv, prv);
            let (s_rows, s_ops) = dec.attend_head(q_block, &sb, srk, srv);
            let (p_rows, p_ops) = dec.attend_head(q_block, &pb, prk, prv);
            prop_assert_eq!(s_rows, p_rows, "head {} attention differs", head);
            prop_assert_eq!(s_ops, p_ops);
        }
    }

    /// Paged decode over ANY page size is bitwise identical to contiguous
    /// decode, and the store stays contiguous-equivalent throughout.
    #[test]
    fn paged_decode_matches_contiguous_for_any_page_size(
        page_tokens in 1usize..300,
        prompt in 1usize..300,
        gen in 1usize..5,
        scheme in arb_scheme(),
        seed: u64,
    ) {
        let dec = decoder(scheme);
        let pages = (prompt + gen).div_ceil(page_tokens) + 1;
        let mut store = PagedKvStore::new(
            dec.cache_config(), ATTN.heads_kv, pages, page_tokens);
        drive_mirrored(&dec, &mut store, seed, prompt, gen)?;
    }

    /// Random evictions of finished sequences recycle pages without
    /// corrupting survivors: sequences admitted into recycled pages still
    /// decode bitwise-identically to contiguous.
    #[test]
    fn evictions_recycle_pages_without_corruption(
        page_tokens in 1usize..160,
        evict_mask in 0u8..8,
        seed: u64,
    ) {
        let dec = decoder(QuantScheme::kc4());
        // Room for three resident sequences of ≤ 180 tokens each.
        let pages = 3 * 180usize.div_ceil(page_tokens) + 3;
        let mut store = PagedKvStore::new(
            dec.cache_config(), ATTN.heads_kv, pages, page_tokens);
        let sizes = [(150usize, 2usize), (170, 3), (129, 2)];
        let mut live: Vec<SeqId> = Vec::new();
        for (i, (prompt, gen)) in sizes.iter().enumerate() {
            live.push(drive_mirrored(&dec, &mut store, seed ^ i as u64, *prompt, *gen)?);
        }
        // Evict the masked subset (they are finished), then admit fresh
        // sequences into the recycled pages and verify them end-to-end.
        let mut freed = 0;
        for (i, seq) in live.into_iter().enumerate() {
            if evict_mask & (1 << i) != 0 {
                store.seal(seq).unwrap();
                store.evict(seq);
                freed += 1;
            }
        }
        for i in 0..freed {
            drive_mirrored(&dec, &mut store, seed ^ (0xA0 + i as u64), 140, 2)?;
        }
    }

    /// Any interleaving of preempt / swap-out / swap-in produced by any
    /// shipped scheduling policy yields token streams bitwise identical to
    /// uninterrupted contiguous decode — devices 1–4 × partitioning ×
    /// page size × scheme. Along the way, every step's occupancy metrics
    /// must agree with the store's actual (post-evict) free-page counts.
    #[test]
    fn preempted_streams_match_contiguous_bitwise(
        devices in 1usize..5,
        partitioning in arb_partitioning(),
        page_tokens in 1usize..80,
        policy_id in 0usize..3,
        scheme in arb_scheme(),
        seed: u64,
    ) {
        // Three staggered arrivals into a pool sized for the biggest
        // single request plus one page: over-subscribed for the offered
        // load, so admission queues and (under FcfsPreempt) preempts.
        let sizes = [(70usize, 3usize), (40, 2), (25, 4)];
        let arrivals = [0usize, 1, 3];
        let pages = 73usize.div_ceil(page_tokens) + 1;
        let config = ServeConfig::new(pages, page_tokens, 0, 8)
            .with_devices(devices, partitioning);
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(ATTN_QUAD)
            .scheme(scheme)
            .paged(true)
            .build();
        let session = ServeSession::new(dec.clone(), config);
        let mut session = match policy_id {
            0 => session,
            1 => session.with_policy(FcfsPreempt::default()),
            _ => session.with_policy(ShortestRemainingFirst),
        };
        let ids: Vec<_> = sizes
            .iter()
            .zip(arrivals)
            .enumerate()
            .map(|(i, (&(prompt, gen), at))| {
                session
                    .submit_at(at, Box::new(SynthSequence::new(
                        ATTN_QUAD, seed ^ i as u64, prompt, gen)))
                    .unwrap()
            })
            .collect();
        while let Some(m) = session.step() {
            let store = session.store();
            prop_assert!(
                (m.pool_utilization - store.utilization()).abs() < 1e-12,
                "step {}: pool occupancy is not the post-evict state", m.step
            );
            for d in &m.per_device {
                let stats = store.device_stats(DeviceId(d.device as u32));
                prop_assert!(
                    (d.page_occupancy - stats.utilization).abs() < 1e-12,
                    "step {}: device {} occupancy is not the post-evict state",
                    m.step, d.device
                );
            }
        }
        for (i, (id, &(prompt, gen))) in ids.iter().zip(&sizes).enumerate() {
            prop_assert!(session.is_finished(*id), "request {} unserved", i);
            let want = replay_contiguous(
                &dec,
                &mut SynthSequence::new(ATTN_QUAD, seed ^ i as u64, prompt, gen),
            );
            prop_assert_eq!(
                session.stream(*id).unwrap(), &want[..],
                "policy {} request {}", session.policy_label(), i
            );
        }
        // Everything drained: all pages back on every device.
        prop_assert_eq!(session.store().free_pages(), session.store().total_pages());
    }

    /// Shared-prompt forks are bitwise invisible: a parent, two children
    /// admitted through `submit_forked` (their prompt pages aliased
    /// copy-on-write off the live parent), and a late fresh request that
    /// over-subscribes the pool, decoded across devices 1–4 ×
    /// partitioning × page size × every scheduling policy. The fork steps
    /// and the late `submit_at` arrival co-vary in one schedule, so
    /// mid-run fresh admissions interleave with CoW forks at every
    /// relative offset. Whatever CoW, preemption, and swap interleaving
    /// the run produces, every stream must equal the **unshared**
    /// per-sequence contiguous replay bit for bit, and every refcount
    /// must drain.
    #[test]
    fn forked_streams_match_unshared_contiguous_replay_bitwise(
        devices in 1usize..5,
        partitioning in arb_partitioning(),
        page_tokens in 1usize..80,
        policy_id in 0usize..3,
        fork_at in 1usize..5,
        late_gap in 0usize..4,
        scheme in arb_scheme(),
        seed: u64,
    ) {
        let prompt = 128usize;
        let parent_gen = 8usize;
        let child_gens = [4usize, 5];
        // Pool: the parent, both children's private tails, and one spare —
        // the late fresh request (40 + 3 tokens) over-subscribes it, so a
        // preempting policy swaps a sharing sequence out and back in.
        let shared_slots = prompt.div_ceil(page_tokens);
        let child_new = |g: usize| {
            (prompt + g).div_ceil(page_tokens).max(shared_slots) - shared_slots
        };
        let pages = (prompt + parent_gen).div_ceil(page_tokens)
            + child_new(child_gens[0])
            + child_new(child_gens[1])
            + 1;
        let config = ServeConfig::new(pages, page_tokens, 0, 8)
            .with_devices(devices, partitioning);
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(ATTN_QUAD)
            .scheme(scheme)
            .paged(true)
            .build();
        let session = ServeSession::new(dec.clone(), config);
        let mut session = match policy_id {
            0 => session,
            1 => session.with_policy(FcfsPreempt::default()),
            _ => session.with_policy(ShortestRemainingFirst),
        };
        let parent = session
            .submit(Box::new(SynthSequence::forked(
                ATTN_QUAD, seed, seed ^ 1, prompt, parent_gen)))
            .unwrap();
        let mut ids = vec![(parent, seed ^ 1, prompt, parent_gen)];
        for (i, &gen) in child_gens.iter().enumerate() {
            let id = session
                .submit_forked_at(fork_at + i, parent, Box::new(SynthSequence::forked(
                    ATTN_QUAD, seed, seed ^ (2 + i as u64), prompt, gen)))
                .unwrap();
            ids.push((id, seed ^ (2 + i as u64), prompt, gen));
        }
        // Strictly after both forks, so the page pressure it brings never
        // swaps the parent out before the children alias its prompt.
        let late = session
            .submit_at(fork_at + 2 + late_gap, Box::new(SynthSequence::forked(
                ATTN_QUAD, seed ^ 9, seed ^ 9, 40, 3)))
            .unwrap();
        ids.push((late, seed ^ 9, 40, 3));
        let summary = session.run_to_completion();
        prop_assert_eq!(summary.completed, 4);
        // The children arrive while the parent is decoding and their
        // private tails are reserved in the pool, so both must have been
        // admitted by forking (the prompt is reachable under every scheme:
        // Nr-aligned at KC-4, within the residual window at KC-2).
        prop_assert_eq!(
            summary.forks, 2,
            "policy {} devices {}: children did not fork", session.policy_label(), devices
        );
        for (i, (id, gen_seed, p, g)) in ids.iter().enumerate() {
            let want = replay_contiguous(
                &dec,
                &mut SynthSequence::forked(
                    ATTN_QUAD, if i < 3 { seed } else { seed ^ 9 }, *gen_seed, *p, *g),
            );
            prop_assert_eq!(
                session.stream(*id).unwrap(), &want[..],
                "policy {} request {}: forked stream diverged", session.policy_label(), i
            );
        }
        prop_assert_eq!(
            session.store().free_pages(), session.store().total_pages(),
            "refcounts did not drain"
        );
    }

    /// The storage-level swap round trip is bitwise for any page size and
    /// any device count/partitioning: swap-out frees every page, swap-in
    /// restores blocks and residual windows byte-for-byte, and the
    /// restored sequence keeps accepting appends that stay
    /// contiguous-equivalent.
    #[test]
    fn swap_round_trip_is_bitwise_at_storage_level(
        devices in 1usize..5,
        partitioning in arb_partitioning(),
        page_tokens in 1usize..160,
        tokens in 1usize..260,
        extra in 1usize..4,
        seed: u64,
    ) {
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(ATTN_QUAD)
            .scheme(QuantScheme::kc4())
            .paged(true)
            .build();
        let codec = dec.codec();
        let heads = ATTN_QUAD.heads_kv;
        let budget = tokens + extra;
        let pages = budget.div_ceil(page_tokens) + 1;
        let placement = Placement::new(devices, partitioning, heads);
        let mut sharded = ShardedKvStore::new(dec.cache_config(), placement, pages, page_tokens);
        let mut single = PagedKvStore::new(dec.cache_config(), heads, pages, page_tokens);
        let mut cache = dec.new_cache(1);
        let mut model = SynthSequence::new(ATTN_QUAD, seed, tokens, 1);
        let (pk, pv) = model.prompt();
        let (sseq, _) = sharded.admit_prefill_cached(&pk, &pv, budget, &codec).unwrap();
        let pseq = single.admit(budget).unwrap();
        single.prefill(pseq, &pk, &pv, &codec).unwrap();
        for h in 0..heads {
            cache.prefill(h, &pk[h], &pv[h], &codec).unwrap();
        }

        let sblob = sharded.swap_out(sseq).unwrap();
        let pblob = single.swap_out(pseq).unwrap();
        prop_assert_eq!(sharded.free_pages(), sharded.total_pages());
        prop_assert_eq!(single.free_pages(), single.total_pages());
        prop_assert_eq!(sblob.host_bytes(), pblob.host_bytes(),
            "sharding must not change the swapped payload size");

        let sback = sharded.swap_in(&sblob).unwrap();
        let pback = single.swap_in(&pblob).unwrap();
        prop_assert!(sharded.matches_cache(sback, &cache, 0), "sharded round trip");
        prop_assert!(single.matches_cache(pback, &cache, 0), "paged round trip");

        // The restored reservation still covers post-resume appends.
        for t in 0..extra {
            let k: Vec<Vec<f32>> = (0..heads)
                .map(|h| (0..16).map(|c| ((seed as usize + h * 31 + t * 7 + c) as f32 * 0.11).sin()).collect())
                .collect();
            sharded.append_step(sback, &k, &k, &codec).unwrap();
            single.append_step(pback, &k, &k, &codec).unwrap();
            for (h, kh) in k.iter().enumerate() {
                cache.append_token(h, kh, kh, &codec).unwrap();
            }
        }
        prop_assert!(sharded.matches_cache(sback, &cache, 0), "post-resume sharded");
        prop_assert!(single.matches_cache(pback, &cache, 0), "post-resume paged");
    }

    /// The full batched session emits identical token streams at any
    /// worker count, and they match the per-sequence contiguous replay.
    #[test]
    fn session_streams_invariant_to_worker_count(
        scheme in arb_scheme(),
        n_seqs in 1usize..5,
        seed: u64,
    ) {
        let streams_at = |workers: usize| -> Vec<Vec<u32>> {
            let mut session = ServeSession::new(
                decoder(scheme), ServeConfig::new(512, 64, workers, 8));
            let ids: Vec<_> = (0..n_seqs)
                .map(|i| {
                    let prompt = 90 + 37 * i;
                    session
                        .submit(Box::new(SynthSequence::new(ATTN, seed ^ i as u64, prompt, 3)))
                        .unwrap()
                })
                .collect();
            session.run_to_completion();
            ids.iter().map(|id| session.stream(*id).unwrap().to_vec()).collect()
        };
        let inline = streams_at(0);
        prop_assert_eq!(&inline, &streams_at(1));
        prop_assert_eq!(&inline, &streams_at(3));
        for (i, stream) in inline.iter().enumerate() {
            let want = replay_contiguous(
                &decoder(scheme),
                &mut SynthSequence::new(ATTN, seed ^ i as u64, 90 + 37 * i, 3),
            );
            prop_assert_eq!(stream, &want, "sequence {}", i);
        }
    }

    /// The chaos property: a *seeded fault schedule* — device losses,
    /// swap-blob corruption, transient link failures, timed pool
    /// exhaustion — layered over any scheduling policy × devices 1–4 ×
    /// partitioning × page size × the radix prefix cache on/off × a
    /// fork/preempt-inducing workload never changes which tokens any
    /// stream carries: the session completes every request, each stream
    /// equals its uninterrupted **unshared** contiguous replay bit for
    /// bit, no request fails, and every page drains once the run ends.
    /// The twin tenant repeats the parent's prompt without forking, so
    /// with the cache on the run exercises content adoption, pinned-page
    /// eviction under pressure, and page recycling across device-loss
    /// rebuilds (the recycled-generation staleness path).
    #[test]
    fn chaos_schedules_never_change_completed_streams(
        devices in 1usize..5,
        partitioning in arb_partitioning(),
        page_tokens in 1usize..80,
        policy_id in 0usize..3,
        prefix_cache in any::<bool>(),
        n_faults in 1usize..6,
        fault_seed: u64,
        seed: u64,
    ) {
        // The preemption workload plus a shared-prompt fork and an
        // identical-prompt twin: staggered arrivals into a pool sized for
        // the biggest request + one page, so admission queues, forks CoW,
        // the twin content-dedups when the geometry seals a whole page
        // run, and (under FcfsPreempt) preempts — then the fault schedule
        // kicks it while it is down.
        let pages = 143usize.div_ceil(page_tokens) + 1;
        let config = ServeConfig::new(pages, page_tokens, 0, 8)
            .with_devices(devices, partitioning)
            .with_prefix_cache(prefix_cache);
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(ATTN_QUAD)
            .scheme(QuantScheme::kc4())
            .paged(true)
            .build();
        let session = ServeSession::new(dec.clone(), config)
            .with_faults(FaultPlan::seeded(fault_seed, n_faults, 12, devices));
        let mut session = match policy_id {
            0 => session,
            1 => session.with_policy(FcfsPreempt::default()),
            _ => session.with_policy(ShortestRemainingFirst),
        };
        let parent = session
            .submit(Box::new(SynthSequence::forked(ATTN_QUAD, seed, seed ^ 1, 140, 3)))
            .unwrap();
        let child = session
            .submit_forked_at(
                1,
                parent,
                Box::new(SynthSequence::forked(ATTN_QUAD, seed, seed ^ 2, 140, 2)),
            )
            .unwrap();
        let twin = session
            .submit_at(
                2,
                Box::new(SynthSequence::forked(ATTN_QUAD, seed, seed ^ 4, 140, 2)),
            )
            .unwrap();
        let late = session
            .submit_at(3, Box::new(SynthSequence::new(ATTN_QUAD, seed ^ 3, 25, 4)))
            .unwrap();
        // Step by hand so the scheduler's partition can be checked after
        // every step: each submitted request is in exactly one of
        // waiting-for-arrival, pending, active, finished, failed.
        let ids = [parent, child, twin, late];
        while session.step().is_some() {
            let finished = ids.iter().filter(|id| session.is_finished(**id)).count();
            let failed = ids.iter().filter(|id| session.is_failed(**id)).count();
            prop_assert_eq!(
                session.pending() + session.future_arrivals() + session.active()
                    + finished + failed,
                ids.len(),
                "a request was lost or duplicated"
            );
            prop_assert!(
                ids.iter().all(|id| !(session.is_finished(*id) && session.is_failed(*id))),
                "a request both finished and failed"
            );
        }
        // Nothing is left to run; this only releases pages a fault still
        // holds seized, so the leak check below sees a drained pool.
        session.run_to_completion();
        let sum = |f: fn(&ServeMetrics) -> usize| session.metrics().iter().map(f).sum::<usize>();
        let faults_injected = sum(|m| m.faults_injected);
        prop_assert_eq!(sum(|m| m.completed), 4, "a fault aborted a request");
        prop_assert_eq!(sum(|m| m.requests_failed), 0);
        if !prefix_cache {
            prop_assert_eq!(
                sum(|m| m.prefix_cache_hits) + sum(|m| m.prefix_pages_reused), 0,
                "the cache gate leaked"
            );
        }
        let cases = [
            (parent, Some(seed ^ 1), 140usize, 3usize),
            (child, Some(seed ^ 2), 140, 2),
            (twin, Some(seed ^ 4), 140, 2),
            (late, None, 25, 4),
        ];
        for (i, (id, gen_seed, prompt, gen)) in cases.iter().enumerate() {
            let mut model = match gen_seed {
                Some(g) => SynthSequence::forked(ATTN_QUAD, seed, *g, *prompt, *gen),
                None => SynthSequence::new(ATTN_QUAD, seed ^ 3, *prompt, *gen),
            };
            let want = replay_contiguous(&dec, &mut model);
            prop_assert_eq!(
                session.stream(*id).unwrap(), &want[..],
                "request {} diverged under fault schedule {:#x}×{} ({} faults injected)",
                i, fault_seed, n_faults, faults_injected
            );
        }
        prop_assert_eq!(
            session.store().free_pages(), session.store().total_pages(),
            "pages leaked across fault recovery"
        );
    }

    /// Cascade grouping is an optimization, never a correctness
    /// requirement: the same fork/preempt/swap/fault workload run with
    /// shared-prefix grouping ON and OFF — devices 1–4 × partitioning ×
    /// page size × scheme × policy × a seeded fault schedule — produces
    /// bitwise identical token streams, both equal to the uninterrupted
    /// per-sequence contiguous replay. The OFF run must form zero groups
    /// and save zero prefix pages, and the ON run's group accounting must
    /// stay internally consistent (pages saved only when groups formed).
    #[test]
    fn cascade_grouping_on_off_and_contiguous_replay_agree_bitwise(
        devices in 1usize..5,
        partitioning in arb_partitioning(),
        page_tokens in 1usize..80,
        policy_id in 0usize..3,
        fork_at in 1usize..4,
        late_gap in 0usize..4,
        scheme in arb_scheme(),
        n_faults in 1usize..4,
        fault_seed: u64,
        seed: u64,
    ) {
        let prompt = 96usize;
        let gens = [5usize, 3, 2];
        // Parent plus both children's private tails plus one spare page —
        // the late fresh request (40 + 3 tokens) over-subscribes the pool
        // so a preempting policy swaps a group member out mid-run.
        let shared_slots = prompt.div_ceil(page_tokens);
        let child_new = |g: usize| {
            (prompt + g).div_ceil(page_tokens).max(shared_slots) - shared_slots
        };
        let pages = (prompt + gens[0]).div_ceil(page_tokens)
            + child_new(gens[1])
            + child_new(gens[2])
            + 1;
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(ATTN_QUAD)
            .scheme(scheme)
            .paged(true)
            .build();
        let run = |grouping: bool| {
            let config = ServeConfig::new(pages, page_tokens, 0, 8)
                .with_devices(devices, partitioning)
                .with_shared_attn(grouping);
            let session = ServeSession::new(dec.clone(), config)
                .with_faults(FaultPlan::seeded(fault_seed, n_faults, 12, devices));
            let mut session = match policy_id {
                0 => session,
                1 => session.with_policy(FcfsPreempt::default()),
                _ => session.with_policy(ShortestRemainingFirst),
            };
            let parent = session
                .submit(Box::new(SynthSequence::forked(
                    ATTN_QUAD, seed, seed ^ 1, prompt, gens[0])))
                .unwrap();
            let mut ids = vec![parent];
            for (i, &gen) in gens[1..].iter().enumerate() {
                ids.push(session
                    .submit_forked_at(fork_at + i, parent, Box::new(SynthSequence::forked(
                        ATTN_QUAD, seed, seed ^ (2 + i as u64), prompt, gen)))
                    .unwrap());
            }
            // The fresh mid-run arrival co-varies with the fork steps but
            // always lands after both forks.
            ids.push(session
                .submit_at(
                    fork_at + 2 + late_gap,
                    Box::new(SynthSequence::new(ATTN_QUAD, seed ^ 9, 40, 3)))
                .unwrap());
            let summary = session.run_to_completion();
            let streams: Vec<Vec<u32>> = ids
                .iter()
                .map(|id| session.stream(*id).unwrap().to_vec())
                .collect();
            let drained = session.store().free_pages() == session.store().total_pages();
            (streams, summary, drained)
        };
        let (on_streams, on_summary, on_drained) = run(true);
        let (off_streams, off_summary, off_drained) = run(false);
        prop_assert_eq!(on_summary.completed, 4, "grouped run lost a request");
        prop_assert_eq!(off_summary.completed, 4, "ungrouped run lost a request");
        prop_assert_eq!(
            &on_streams, &off_streams,
            "grouping changed token values (devices={} pt={} policy={})",
            devices, page_tokens, policy_id
        );
        // Both agree with the uninterrupted unshared contiguous replay.
        let cases = [
            (seed, seed ^ 1, prompt, gens[0]),
            (seed, seed ^ 2, prompt, gens[1]),
            (seed, seed ^ 3, prompt, gens[2]),
            (seed ^ 9, seed ^ 9, 40, 3),
        ];
        for (i, (prompt_seed, gen_seed, p, g)) in cases.iter().enumerate() {
            let want = replay_contiguous(
                &dec,
                &mut SynthSequence::forked(ATTN_QUAD, *prompt_seed, *gen_seed, *p, *g),
            );
            prop_assert_eq!(
                &on_streams[i], &want,
                "request {} diverged from contiguous replay with grouping on", i
            );
        }
        // The gate is real: OFF forms no groups and saves nothing.
        prop_assert_eq!(off_summary.shared_attn_groups, 0);
        prop_assert_eq!(off_summary.prefix_pages_walked_saved, 0);
        // ON accounting is internally consistent: a walk is only ever
        // saved by a formed group.
        if on_summary.shared_attn_groups == 0 {
            prop_assert_eq!(on_summary.prefix_pages_walked_saved, 0);
        }
        prop_assert!(on_drained && off_drained, "refcounts did not drain");
    }

    /// Heterogeneity is bitwise invisible: a session on an arbitrary
    /// mixed-architecture fleet — 4 devices of any builtin profiles,
    /// split across 1–4 islands, heads apportioned UNEVENLY by modeled
    /// throughput via `with_topology` — emits token streams identical to
    /// per-sequence contiguous replay, for any page size and worker
    /// count, while the weighted placement covers all KV heads exactly.
    #[test]
    fn weighted_uneven_fleet_matches_contiguous_replay_bitwise(
        islands in 1usize..5,
        arch_pick in prop::collection::vec(0usize..5, 4),
        page_tokens in 1usize..80,
        workers in 0usize..3,
        n_seqs in 1usize..4,
        scheme in arb_scheme(),
        seed: u64,
    ) {
        let profiles = ["a100", "rtx4090", "h100", "rtx5090", "rtx_pro6000"];
        let mut text = String::from(
            "[topology]\nname = prop_fleet\ncross_link = ib\nhost_link = pcie\n\
             [link nvlink]\ngbs = 450\nlatency_us = 3\n\
             [link ib]\ngbs = 50\nlatency_us = 5\n\
             [link pcie]\ngbs = 64\nlatency_us = 10\n",
        );
        // 4 devices dealt round-robin across the islands.
        for i in 0..islands {
            let members: Vec<&str> = (i..4)
                .step_by(islands)
                .map(|d| profiles[arch_pick[d]])
                .collect();
            if members.is_empty() {
                continue;
            }
            text.push_str(&format!(
                "[island i{i}]\ndevices = {}\nlink = nvlink\n",
                members.join(", ")
            ));
        }
        let topo = bd_gpu_sim::TopologySpec::parse(&text)
            .expect("generated fleet parses")
            .resolve()
            .expect("builtin profiles resolve");
        let prompt = |i: usize| 60 + 47 * i;
        let pages = n_seqs * 230usize.div_ceil(page_tokens) + 1;
        let config = ServeConfig::new(pages, page_tokens, workers, 8).with_topology(topo);
        prop_assert_eq!(config.devices, 4);
        prop_assert_eq!(config.partitioning, Partitioning::Weighted);
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(ATTN_WIDE)
            .scheme(scheme)
            .paged(true)
            .build();
        let mut session = ServeSession::new(dec.clone(), config);
        let heads_assigned: usize = (0..session.devices())
            .map(|d| session.store().device_stats(DeviceId(d as u32)).heads)
            .sum();
        prop_assert_eq!(heads_assigned, ATTN_WIDE.heads_kv, "weighted cover incomplete");
        let ids: Vec<_> = (0..n_seqs)
            .map(|i| {
                session
                    .submit(Box::new(SynthSequence::new(
                        ATTN_WIDE, seed ^ i as u64, prompt(i), 2)))
                    .unwrap()
            })
            .collect();
        let summary = session.run_to_completion();
        prop_assert_eq!(summary.completed, n_seqs);
        for (i, id) in ids.iter().enumerate() {
            let want = replay_contiguous(
                &dec,
                &mut SynthSequence::new(ATTN_WIDE, seed ^ i as u64, prompt(i), 2),
            );
            prop_assert_eq!(
                session.stream(*id).unwrap(), &want[..],
                "sequence {} diverged on the mixed fleet", i
            );
        }
    }

    /// The radix prefix cache is bitwise invisible under chaos: N
    /// independent identical-prompt tenants (no `fork` anywhere) plus a
    /// distinct late arrival, run with the content-addressed cache ON and
    /// OFF under the same seeded fault schedule — devices 1–4 ×
    /// partitioning × page size × scheme × policy — emit identical token
    /// streams, both equal to the uninterrupted contiguous replay. On a
    /// fault-free schedule every tenant after the first must adopt the
    /// sealed prompt runs on every device, and pages never leak either
    /// way.
    #[test]
    fn radix_prefix_cache_chaos_streams_match_uncached_bitwise(
        devices in 1usize..5,
        partitioning in arb_partitioning(),
        pt_pick in 0usize..4,
        policy_id in 0usize..3,
        scheme in arb_scheme(),
        n_tenants in 2usize..5,
        n_faults in 0usize..4,
        fault_seed: u64,
        seed: u64,
    ) {
        // Page sizes that divide both schemes' packed-run geometry, so a
        // 256-token prompt always seals at least one whole page run and
        // the guaranteed-hit assertion below is exact.
        let page_tokens = [8usize, 16, 32, 64][pt_pick];
        let prompt = 256usize;
        let gen = |i: usize| 2 + (i % 3);
        // Generous pool: everything fits, so the chaos comes from the
        // fault schedule (device loss, link failures, blob corruption),
        // not page pressure — the over-subscribed cache-under-pressure
        // grid lives in `chaos_schedules_never_change_completed_streams`.
        let pages = n_tenants * 260usize.div_ceil(page_tokens)
            + 43usize.div_ceil(page_tokens)
            + 2;
        let dec = BitDecoder::builder(GpuArch::rtx4090())
            .attention(ATTN_QUAD)
            .scheme(scheme)
            .paged(true)
            .build();
        let run = |cache: bool| {
            let config = ServeConfig::new(pages, page_tokens, 0, 8)
                .with_devices(devices, partitioning)
                .with_prefix_cache(cache);
            let session = ServeSession::new(dec.clone(), config)
                .with_faults(FaultPlan::seeded(fault_seed, n_faults, 12, devices));
            let mut session = match policy_id {
                0 => session,
                1 => session.with_policy(FcfsPreempt::default()),
                _ => session.with_policy(ShortestRemainingFirst),
            };
            let mut ids = Vec::new();
            for i in 0..n_tenants {
                ids.push(session
                    .submit(Box::new(SynthSequence::forked(
                        ATTN_QUAD, seed, seed ^ (1 + i as u64), prompt, gen(i))))
                    .unwrap());
            }
            ids.push(session
                .submit_at(2, Box::new(SynthSequence::new(ATTN_QUAD, seed ^ 99, 40, 3)))
                .unwrap());
            let summary = session.run_to_completion();
            let streams: Vec<Vec<u32>> = ids
                .iter()
                .map(|id| session.stream(*id).unwrap().to_vec())
                .collect();
            let drained = session.store().free_pages() == session.store().total_pages();
            (streams, summary, drained)
        };
        let (on_streams, on_summary, on_drained) = run(true);
        let (off_streams, off_summary, off_drained) = run(false);
        prop_assert_eq!(on_summary.completed, n_tenants + 1, "cached run lost a request");
        prop_assert_eq!(off_summary.completed, n_tenants + 1, "uncached run lost a request");
        prop_assert_eq!(on_summary.requests_failed + off_summary.requests_failed, 0);
        prop_assert_eq!(
            &on_streams, &off_streams,
            "the prefix cache changed token values (devices={} pt={} policy={})",
            devices, page_tokens, policy_id
        );
        for (i, stream) in on_streams.iter().enumerate() {
            let mut model = if i < n_tenants {
                SynthSequence::forked(
                    ATTN_QUAD, seed, seed ^ (1 + i as u64), prompt, gen(i))
            } else {
                SynthSequence::new(ATTN_QUAD, seed ^ 99, 40, 3)
            };
            let want = replay_contiguous(&dec, &mut model);
            prop_assert_eq!(
                stream, &want,
                "request {} diverged under fault schedule {:#x}×{} ({} injected)",
                i, fault_seed, n_faults, on_summary.faults_injected
            );
        }
        // The gate is real: OFF never touches the cache.
        prop_assert_eq!(
            off_summary.prefix_cache_hits
                + off_summary.prefix_cache_misses
                + off_summary.prefix_pages_reused,
            0
        );
        // Fault-free schedules adopt deterministically: no rebuild ever
        // cleared the index, so every tenant after the first hits once
        // per device and reuses at least the sealed prompt runs.
        if n_faults == 0 {
            prop_assert_eq!(on_summary.prefix_cache_hits, (n_tenants - 1) * devices);
            prop_assert!(on_summary.prefix_pages_reused > 0);
        }
        prop_assert!(on_drained && off_drained, "refcounts did not drain");
    }
}
