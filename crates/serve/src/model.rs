//! Per-sequence drivers: the stand-in for everything *around* attention.
//!
//! The serve runtime owns KV storage and attention execution; what it does
//! **not** own is the transformer around them — QKV projections, sampling,
//! detokenization. A [`SequenceModel`] supplies exactly that boundary: the
//! prompt K/V, the per-step query, and the mapping from an attention output
//! to the emitted token plus the K/V rows that token appends.
//!
//! [`SynthSequence`] is the deterministic synthetic implementation: every
//! value is a pure function of `(seed, step, position)` **and the previous
//! attention output** (the next token's K/V depend on the emitted token),
//! so any numeric divergence anywhere in the paged batched pipeline
//! propagates into visibly different token streams. That makes the
//! bitwise-equivalence tests against [`replay_contiguous`] sharp.

use bd_core::{BitDecoder, QueryHeads};
use bd_kvcache::TokenMatrix;

/// One decode step's product: the emitted token and the K/V rows (one per
/// KV head) it appends to the cache.
#[derive(Clone, Debug, PartialEq)]
pub struct StepKv {
    /// The emitted token.
    pub token: u32,
    /// New K row per KV head (`heads_kv × head_dim`).
    pub k: Vec<Vec<f32>>,
    /// New V row per KV head.
    pub v: Vec<Vec<f32>>,
}

/// Drives one sequence through the serve runtime — the request-side model
/// boundary (projections + sampling stand-in).
///
/// The runtime calls `prompt` at admission, then alternates
/// `query(step)` → attention → `advance(step, output)` for
/// `gen_tokens()` steps, appending the returned K/V after each step.
///
/// `query` and `advance` run on the decode step's launch threads: the
/// runtime may call different sequences' models at the same time, from
/// any thread of the launch, which is why a model must be `Send`. Each
/// model's own calls keep their order — `query(s)` returns before
/// `advance(s, ·)` starts, once each per step — and a panic in either
/// fails only the model's own request
/// ([`crate::ServeError::ModelPanicked`]).
pub trait SequenceModel: Send {
    /// Prompt K/V, one `tokens × head_dim` matrix per KV head.
    fn prompt(&mut self) -> (Vec<TokenMatrix>, Vec<TokenMatrix>);
    /// Prompt length in tokens (admission control reads this before
    /// deciding to call [`SequenceModel::prompt`]).
    fn prompt_tokens(&self) -> usize;
    /// Number of tokens to generate.
    fn gen_tokens(&self) -> usize;
    /// The single-token query (`heads_q × head_dim`) for generation step
    /// `step` (0-based).
    fn query(&mut self, step: usize) -> QueryHeads;
    /// Consumes step `step`'s attention output (`heads_q × head_dim`),
    /// returning the emitted token and the K/V rows to append.
    fn advance(&mut self, step: usize, output: &QueryHeads) -> StepKv;
    /// Restores the model to its pre-decode state so the runtime can
    /// replay the request from its prompt — the hook
    /// recompute-from-prompt fault recovery uses. After `reset`, the
    /// `prompt` → `query`/`advance` cycle must reproduce the original
    /// stream exactly. Stateless models keep the default no-op; stateful
    /// ones (like [`SynthSequence`], whose appended K/V chain through the
    /// previously emitted token) must restore their initial state or
    /// recovered streams will diverge.
    fn reset(&mut self) {}
}

/// Deterministic synthetic sequence: prompt, queries, and next-token K/V
/// are SplitMix64-hashed functions of the seed — and the K/V additionally
/// of the previously emitted token, so the token stream is sensitive to
/// every bit of every attention output that preceded it.
#[derive(Clone, Debug)]
pub struct SynthSequence {
    attn: bd_core::AttentionConfig,
    /// Seeds the prompt K/V (shared-prompt siblings share this).
    prompt_seed: u64,
    /// Seeds queries and next-token K/V (distinct per sibling).
    seed: u64,
    prompt_len: usize,
    gen: usize,
    last_token: u32,
}

/// Domain tags separating the hash streams.
const TAG_PROMPT_K: u64 = 0x11;
const TAG_PROMPT_V: u64 = 0x22;
const TAG_QUERY: u64 = 0x33;
const TAG_STEP_K: u64 = 0x44;
const TAG_STEP_V: u64 = 0x55;

/// SplitMix64-style hash of `(seed, tag, i, j)` to an f32 in `[-2, 2)`.
fn hval(seed: u64, tag: u64, i: u64, j: u64) -> f32 {
    let mut z = seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ j.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 32) as u32 % 4096) as f32 / 1024.0 - 2.0
}

/// Folds an attention output into a token id (the sampling stand-in): a
/// rotate-xor over the raw f32 bit patterns, so two outputs differing in
/// any single bit almost surely emit different tokens.
pub(crate) fn hash_output(output: &QueryHeads) -> u32 {
    let mut h = 0x9E37_79B9u32;
    for row in output {
        for &x in row {
            h = h.rotate_left(5) ^ x.to_bits();
            h = h.wrapping_mul(0x0100_01B3);
        }
    }
    h
}

impl SynthSequence {
    /// A sequence with `prompt_len` prompt tokens and `gen` tokens to
    /// generate, all values derived from `seed`.
    pub fn new(attn: bd_core::AttentionConfig, seed: u64, prompt_len: usize, gen: usize) -> Self {
        SynthSequence {
            attn,
            prompt_seed: seed,
            seed,
            prompt_len,
            gen,
            last_token: 0,
        }
    }

    /// A shared-prompt sibling: the prompt K/V derive from `prompt_seed`
    /// (identical across every sibling built from it — the contract
    /// `ServeSession::submit_forked` relies on) while queries and
    /// generated K/V derive from `gen_seed`, so siblings decode distinct
    /// continuations off one shared prefix.
    pub fn forked(
        attn: bd_core::AttentionConfig,
        prompt_seed: u64,
        gen_seed: u64,
        prompt_len: usize,
        gen: usize,
    ) -> Self {
        SynthSequence {
            attn,
            prompt_seed,
            seed: gen_seed,
            prompt_len,
            gen,
            last_token: 0,
        }
    }
}

impl SequenceModel for SynthSequence {
    fn prompt(&mut self) -> (Vec<TokenMatrix>, Vec<TokenMatrix>) {
        let d = self.attn.head_dim;
        let make = |tag: u64, head: usize, seed: u64, len: usize| {
            TokenMatrix::from_fn(len, d, |t, c| {
                hval(seed, tag ^ (head as u64) << 8, t as u64, c as u64)
            })
        };
        let k = (0..self.attn.heads_kv)
            .map(|h| make(TAG_PROMPT_K, h, self.prompt_seed, self.prompt_len))
            .collect();
        let v = (0..self.attn.heads_kv)
            .map(|h| make(TAG_PROMPT_V, h, self.prompt_seed, self.prompt_len))
            .collect();
        (k, v)
    }

    fn prompt_tokens(&self) -> usize {
        self.prompt_len
    }

    fn gen_tokens(&self) -> usize {
        self.gen
    }

    fn query(&mut self, step: usize) -> QueryHeads {
        (0..self.attn.heads_q)
            .map(|h| {
                (0..self.attn.head_dim)
                    .map(|c| {
                        hval(
                            self.seed,
                            TAG_QUERY ^ (h as u64) << 8,
                            step as u64,
                            c as u64,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn advance(&mut self, step: usize, output: &QueryHeads) -> StepKv {
        let token = hash_output(output) ^ self.last_token.rotate_left(11);
        self.last_token = token;
        // The appended K/V depend on the token: divergence anywhere in the
        // pipeline cascades into all later cache contents.
        let kv_seed = self.seed ^ u64::from(token).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let row = |tag: u64, h: usize| -> Vec<f32> {
            (0..self.attn.head_dim)
                .map(|c| hval(kv_seed, tag ^ (h as u64) << 8, step as u64, c as u64))
                .collect()
        };
        StepKv {
            token,
            k: (0..self.attn.heads_kv)
                .map(|h| row(TAG_STEP_K, h))
                .collect(),
            v: (0..self.attn.heads_kv)
                .map(|h| row(TAG_STEP_V, h))
                .collect(),
        }
    }

    fn reset(&mut self) {
        self.last_token = 0;
    }
}

/// Replays one request on a **contiguous** per-sequence cache through
/// [`BitDecoder::decode`] — the single-sequence ground truth the paged
/// batched runtime must reproduce bitwise. Returns the token stream.
///
/// # Panics
///
/// Panics if the decoder and model disagree on shapes.
pub fn replay_contiguous(decoder: &BitDecoder, model: &mut dyn SequenceModel) -> Vec<u32> {
    let attn = *decoder.attention();
    let codec = decoder.codec();
    let mut cache = decoder.new_cache(1);
    let (pk, pv) = model.prompt();
    assert_eq!(pk.len(), attn.heads_kv, "prompt head count");
    for h in 0..attn.heads_kv {
        cache
            .prefill(h, &pk[h], &pv[h], &codec)
            .unwrap_or_else(|e| panic!("prompt prefill: {e}"));
    }
    let mut tokens = Vec::with_capacity(model.gen_tokens());
    for step in 0..model.gen_tokens() {
        let q = model.query(step);
        let out = decoder
            .decode(std::slice::from_ref(&q), &cache)
            .unwrap_or_else(|e| panic!("contiguous decode: {e}"));
        let step_kv = model.advance(step, &out.outputs[0]);
        for h in 0..attn.heads_kv {
            cache
                .append_token(h, &step_kv.k[h], &step_kv.v[h], &codec)
                .unwrap_or_else(|e| panic!("token append: {e}"));
        }
        tokens.push(step_kv.token);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_core::AttentionConfig;

    #[test]
    fn synth_sequences_are_deterministic() {
        let attn = AttentionConfig::gqa(4, 2, 16);
        let mut a = SynthSequence::new(attn, 9, 20, 4);
        let mut b = SynthSequence::new(attn, 9, 20, 4);
        assert_eq!(a.prompt(), b.prompt());
        assert_eq!(a.query(3), b.query(3));
        let out: QueryHeads = (0..4).map(|h| vec![h as f32 * 0.5; 16]).collect();
        assert_eq!(a.advance(0, &out), b.advance(0, &out));
    }

    #[test]
    fn advance_is_sensitive_to_single_bit_output_changes() {
        let attn = AttentionConfig::gqa(2, 1, 8);
        let mut m1 = SynthSequence::new(attn, 1, 4, 1);
        let mut m2 = SynthSequence::new(attn, 1, 4, 1);
        let out: QueryHeads = (0..2).map(|_| vec![1.0f32; 8]).collect();
        let mut tweaked = out.clone();
        tweaked[1][7] = f32::from_bits(tweaked[1][7].to_bits() ^ 1);
        let a = m1.advance(0, &out);
        let b = m2.advance(0, &tweaked);
        assert_ne!(a.token, b.token);
        assert_ne!(a.k, b.k);
    }

    #[test]
    fn seeds_decorrelate_sequences() {
        let attn = AttentionConfig::gqa(2, 1, 8);
        let mut a = SynthSequence::new(attn, 1, 10, 1);
        let mut b = SynthSequence::new(attn, 2, 10, 1);
        assert_ne!(a.prompt().0, b.prompt().0);
        assert_ne!(a.query(0), b.query(0));
    }
}
