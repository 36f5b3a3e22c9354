//! Golden step work: what a decode step allocates and spawns, pinned.
//!
//! Timings cannot say whether a change did more work or the host ran
//! slower. This file counts instead. One counting `#[global_allocator]`
//! sees every allocation of the process while a step runs, and the test
//! serves small fixed versions of the benchmark's four workload shapes
//! through the public API:
//!
//! - `long_solo`: one KC-4 request whose prompt packs two blocks and
//!   leaves 40 residual rows;
//! - `short_batch`: 16 KC-4 requests of 32 prompt tokens, never packed;
//! - `shared_fleet`: 4 KC-4 requests carrying one identical 296-token
//!   prompt (radix hits, cascade units);
//! - `bursty`: 2 devices, KC-2, `FcfsPreempt`, a pool at about half of
//!   demand and staggered arrivals (preemption, swap, the 2-device merge).
//!
//! For four steps of each shape — the admitting step, a steady decode
//! step, the step that first reads a 16-token group a decode append
//! sealed, and the step whose append makes a residual window's rows cross
//! a power of two — it pins, per step:
//!
//! - `allocs`: allocator calls that hand out memory (`alloc`,
//!   `alloc_zeroed` and `realloc` each count one);
//! - `bytes`: the bytes those calls hand out (a `realloc` counts its new
//!   size);
//! - `live`: `allocs` minus the calls that give memory back (`dealloc`;
//!   a `realloc` gives one back too), i.e. the allocations the step
//!   leaves behind;
//! - `spawned`: threads the step spawned, counted as the threads that
//!   first touched the allocator during the step (every spawned thread
//!   frees the boxed closure it runs, so none escapes the count);
//! - `walked`: packed bytes the step's units stream — the code words and
//!   `half2` parameters of every packed block a unit walks, a cascade's
//!   shared prefix block once;
//! - `lines`: dequant-LUT lines those walks build, one per `half2` group.
//!
//! A fifth shape, `long_run` (one KC-4 request that decodes past the 256
//! samples a session keeps), pins one steady step taken once that history
//! is full: it frees the oldest sample as it keeps its own, so it leaves
//! one allocation fewer live than an early steady step.
//!
//! `walked` and `lines` are read off the store, not off a ledger: a
//! sequence decoded this step walks the blocks it had before the step (a
//! flush lands after the walk), and one the step admits or resumes walks
//! what it has after the step, less the block its append flushed, if any.
//! Blocks are told apart by address, which is what a cascade dedups by.
//! Every step checks the result against the step's
//! [`ServeMetrics::dequant`], the ops the kernels reported: the two must
//! agree register for register.
//!
//! # What depends on the schedule
//!
//! At one thread per device nothing does (`workers` 1, or 0 — inline —
//! for the 2-device shape), and every column is pinned exactly, in debug
//! and release builds alike. With more threads a spawned thread that
//! claims no unit skips its kernel-scratch warm-up, and the units a
//! thread claims decide how its scratch grows, so `allocs` and `bytes`
//! vary from run to run (at 3 workers one `long_solo` steady step read
//! 139 allocations in one run and 147 in the next). Spawns do not: a
//! launch of `tasks` at width `w` spawns `min(w, tasks) − 1` threads
//! whichever of them claims what. Nor does `live` once the session
//! thread's own scratch is warm, because a spawned thread frees its
//! scratch before the step ends. So at the wider runs this file pins
//! `spawned` on every row and demands the first run's `live` on every row
//! but the admitting one. It holds under `taskset -c 0` too.
//!
//! The binary has no libtest harness (`harness = false`): its `main` is
//! the only thread besides the launches', so nothing else can allocate
//! while a step is counted.
//!
//! A change that claims fewer allocations edits exactly the rows it
//! claims and names them ("doubling step N → M").

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_core::{AttentionConfig, BitDecoder};
use bd_gpu_sim::GpuArch;
use bd_kvcache::{PackedBlock, PackedPayload, Partitioning, QuantScheme, SeqId};
use bd_lowbit::fastpath::{register_ops, FastDequantOps};
use bd_lowbit::BitWidth;
use bd_serve::{FcfsPreempt, ServeConfig, ServeMetrics, ServeSession, SynthSequence};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The system allocator with counters that run while [`ARMED`] is set.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread has touched the allocator while armed (the
    /// test thread marks itself before arming).
    static SEEN: Cell<bool> = const { Cell::new(false) };
}

impl Counting {
    fn note(&self, bytes: Option<usize>, freed: bool) {
        if !ARMED.load(Relaxed) {
            return;
        }
        if let Some(bytes) = bytes {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(bytes as u64, Relaxed);
        }
        if freed {
            FREES.fetch_add(1, Relaxed);
        }
        if !SEEN.replace(true) {
            THREADS.fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// touch atomics and a const-initialized, destructor-free thread local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note(Some(layout.size()), false);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note(Some(layout.size()), false);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.note(None, true);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note(Some(new_size), true);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one step did, as counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Work {
    allocs: u64,
    bytes: u64,
    live: i64,
    spawned: u64,
    /// The packed walk's `walked` and `lines`, derived after the step.
    walk: (u64, u64),
}

/// Runs `f` with the counters armed; the calling thread is not counted as
/// spawned.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Work) {
    SEEN.set(true);
    for c in [&ALLOCS, &BYTES, &FREES, &THREADS] {
        c.store(0, Relaxed);
    }
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    let (allocs, frees) = (ALLOCS.load(Relaxed), FREES.load(Relaxed));
    let work = Work {
        allocs,
        bytes: BYTES.load(Relaxed),
        live: allocs as i64 - frees as i64,
        spawned: THREADS.load(Relaxed),
        walk: (0, 0),
    };
    (out, work)
}

const ATTN: AttentionConfig = AttentionConfig {
    heads_q: 8,
    heads_kv: 4,
    head_dim: 64,
};
const PAGE_TOKENS: usize = 64;

fn decoder(scheme: QuantScheme) -> BitDecoder {
    BitDecoder::builder(GpuArch::rtx4090())
        .attention(ATTN)
        .scheme(scheme)
        .paged(true)
        .build()
}

/// A workload shape: builds its session at `workers` per device.
struct Shape {
    name: &'static str,
    /// Worker counts to run, the first the schedule-free one.
    workers: [usize; 3],
    build: fn(usize) -> ServeSession,
}

/// A session serving `requests` — `(arrival step, model)` — under
/// `config`.
fn session(
    scheme: QuantScheme,
    config: ServeConfig,
    requests: impl IntoIterator<Item = (usize, SynthSequence)>,
) -> ServeSession {
    let mut s = ServeSession::new(decoder(scheme), config);
    for (at, model) in requests {
        s.submit_at(at, Box::new(model)).unwrap();
    }
    s
}

/// Two packed KC-4 blocks and 40 residual rows.
const LONG_PROMPT: usize = 2 * 128 + 40;

fn long_solo(workers: usize) -> ServeSession {
    let pages = LONG_PROMPT.div_ceil(PAGE_TOKENS) + 2;
    let config = ServeConfig::new(pages, PAGE_TOKENS, workers, 1);
    let model = SynthSequence::new(ATTN, 1, LONG_PROMPT, 28);
    session(QuantScheme::kc4(), config, [(0, model)])
}

fn short_batch(workers: usize) -> ServeSession {
    let (n, prompt, gen) = (16, 32, 34);
    let config = ServeConfig::new(n * 2, PAGE_TOKENS, workers, n);
    let models = (0..n).map(|i| (0, SynthSequence::new(ATTN, 100 + i as u64, prompt, gen)));
    session(QuantScheme::kc4(), config, models)
}

fn shared_fleet(workers: usize) -> ServeSession {
    let (n, gen) = (4, 28);
    let pages = n * (LONG_PROMPT + gen).div_ceil(PAGE_TOKENS) + 2;
    let config = ServeConfig::new(pages, PAGE_TOKENS, workers, n);
    let models = (0..n).map(|i| {
        let model = SynthSequence::forked(ATTN, 7, 200 + i as u64, LONG_PROMPT, gen);
        (0, model)
    });
    session(QuantScheme::kc4(), config, models)
}

/// More decode steps than the session keeps samples of.
const LONG_RUN_GEN: usize = 300;

fn long_run(workers: usize) -> ServeSession {
    let prompt = 32;
    let pages = (prompt + LONG_RUN_GEN).div_ceil(PAGE_TOKENS) + 2;
    let config = ServeConfig::new(pages, PAGE_TOKENS, workers, 1);
    let model = SynthSequence::new(ATTN, 400, prompt, LONG_RUN_GEN);
    session(QuantScheme::kc4(), config, [(0, model)])
}

/// `(arrival step, prompt, gen)`: a burst at step 0 that fills the pool,
/// then arrivals that preempt into it.
const BURSTY: [(usize, usize, usize); 6] = [
    (0, 300, 30),
    (0, 120, 24),
    (0, 60, 20),
    (2, 200, 12),
    (3, 90, 16),
    (6, 40, 10),
];

fn bursty(workers: usize) -> ServeSession {
    let config = ServeConfig::new(12, 32, workers, 8).with_devices(2, Partitioning::HeadModulo);
    let models = (BURSTY.into_iter().enumerate())
        .map(|(i, (at, prompt, gen))| (at, SynthSequence::new(ATTN, 300 + i as u64, prompt, gen)));
    session(QuantScheme::kc2(), config, models).with_policy(FcfsPreempt::default())
}

/// The residual rows of every resident sequence's windows.
fn windows(s: &ServeSession) -> Vec<usize> {
    let store = s.store();
    (0..256)
        .map(SeqId)
        .filter(|&seq| store.seq_len(seq).is_some())
        .map(|seq| store.residual_len(seq))
        .collect()
}

/// One packed block as a walk reads it: its address (what tells a shared
/// block from a copy), its code words and its `half2` groups, K and V.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Packed {
    at: usize,
    words: u64,
    groups: u64,
}

impl Packed {
    fn of(block: &PackedBlock) -> Packed {
        let (mut words, mut groups) = (0, 0);
        for tensor in [&block.k, &block.v] {
            let PackedPayload::Int { words: w, params } = &tensor.payload else {
                panic!("integer payload");
            };
            words += w.len() as u64;
            groups += params.len() as u64;
        }
        let at = std::ptr::from_ref(block) as usize;
        Packed { at, words, groups }
    }
}

/// A resident sequence between steps: its length, its residual rows and
/// each head's packed blocks.
struct Resident {
    len: usize,
    residual: usize,
    heads: Vec<Vec<Packed>>,
}

fn residents(s: &ServeSession) -> BTreeMap<SeqId, Resident> {
    let store = s.store();
    (0..256)
        .map(SeqId)
        .filter_map(|seq| {
            let len = store.seq_len(seq)?;
            let heads = (0..store.heads())
                .map(|head| {
                    store
                        .packed_blocks(seq, head)
                        .into_iter()
                        .map(Packed::of)
                        .collect()
                })
                .collect();
            let residual = store.residual_len(seq);
            Some((
                seq,
                Resident {
                    len,
                    residual,
                    heads,
                },
            ))
        })
        .collect()
}

/// The packed blocks step `m` walked, from the residents before and after
/// it (see the module docs), each once.
fn walked(
    m: &ServeMetrics,
    before: &BTreeMap<SeqId, Resident>,
    after: &BTreeMap<SeqId, Resident>,
) -> BTreeSet<Packed> {
    let stepped = |seq, was: &Resident| after.get(seq).is_some_and(|now| now.len == was.len + 1);
    let mut out = BTreeSet::new();
    for (seq, was) in before {
        // One that is gone finished (walked, then evicted) or was swapped
        // out before the walk; a step that did both could not tell them
        // apart.
        let gone = !after.contains_key(seq);
        assert!(
            !gone || m.completed == 0 || m.preempted == 0,
            "step {}",
            m.step
        );
        if stepped(seq, was) || gone && m.preempted == 0 {
            out.extend(was.heads.iter().flatten());
        }
    }
    for (seq, now) in after {
        if before.get(seq).is_some_and(|was| stepped(seq, was)) {
            continue;
        }
        // Admitted or resumed this step: a window that reads 0 rows after
        // its one append flushed each head's last block.
        let flushed = usize::from(now.residual == 0);
        for head in &now.heads {
            out.extend(&head[..head.len() - flushed]);
        }
    }
    out
}

/// `walked` and `lines` of a walked set, checked against the fast-dequant
/// ops the step reported for codes of `width`.
fn walk_work(m: &ServeMetrics, blocks: &BTreeSet<Packed>, width: BitWidth) -> (u64, u64) {
    let words: u64 = blocks.iter().map(|b| b.words).sum();
    let groups: u64 = blocks.iter().map(|b| b.groups).sum();
    let per_reg = register_ops(width);
    let regs = (words / 2) as u32;
    let want = FastDequantOps {
        lop3: per_reg.lop3 * regs,
        shifts: per_reg.shifts * regs,
        hfma2: per_reg.hfma2 * regs,
    };
    assert_eq!(
        m.dequant, want,
        "step {}: the walked blocks are not what the kernels read",
        m.step
    );
    (2 * words + 4 * groups, groups)
}

/// Every step of a session: its metrics, the window rows it started
/// from, and its work, counted and derived.
fn serve(mut s: ServeSession) -> Vec<(ServeMetrics, Vec<usize>, Work)> {
    let width = s.decoder().scheme().int_width().expect("integer scheme");
    let mut out = Vec::new();
    loop {
        let (rows, before) = (windows(&s), residents(&s));
        let (m, mut work) = counted(|| s.step());
        let Some(m) = m else { break };
        work.walk = walk_work(&m, &walked(&m, &before, &residents(&s)), width);
        out.push((m, rows, work));
    }
    out
}

const SHAPES: [Shape; 5] = [
    Shape {
        name: "long_solo",
        workers: [1, 2, 3],
        build: long_solo,
    },
    Shape {
        name: "short_batch",
        workers: [1, 2, 3],
        build: short_batch,
    },
    Shape {
        name: "shared_fleet",
        workers: [1, 2, 3],
        build: shared_fleet,
    },
    Shape {
        name: "bursty",
        workers: [0, 1, 2],
        build: bursty,
    },
    Shape {
        name: "long_run",
        workers: [1, 2, 3],
        build: long_run,
    },
];

/// What a pinned step does; checked against the run before its counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Admits at least one request.
    Admitting,
    /// Admits, preempts and resumes nothing, and no window starts at a
    /// whole group or a power of two.
    Steady,
    /// A decode step that starts with a window whose last group the
    /// previous step's append sealed.
    Seal,
    /// A step whose append takes a window's rows past a power of two.
    Doubling,
}

impl Kind {
    fn holds(self, m: &ServeMetrics, rows: &[usize]) -> bool {
        let quiet = m.admitted == 0 && m.preempted == 0 && m.resumed == 0;
        let whole = |&r: &usize| r > 0 && r.is_multiple_of(16);
        let power = |&r: &usize| r >= 16 && r.is_power_of_two();
        match self {
            Kind::Admitting => m.admitted > 0,
            Kind::Steady => quiet && !rows.iter().any(|r| whole(r) || power(r)),
            Kind::Seal => quiet && rows.iter().any(whole),
            Kind::Doubling => rows.iter().any(power),
        }
    }
}

/// One pinned step. `allocs`, `bytes` and `live` are the shape's first
/// width (1, or 0 for the 2-device shape); `spawned` is per width;
/// `walked` and `lines` are the same at every width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    shape: &'static str,
    step: usize,
    kind: Kind,
    allocs: u64,
    bytes: u64,
    live: i64,
    spawned: [u64; 3],
    walked: u64,
    lines: u64,
}

#[allow(clippy::too_many_arguments)]
const fn row(
    shape: &'static str,
    step: usize,
    kind: Kind,
    allocs: u64,
    bytes: u64,
    live: i64,
    spawned: [u64; 3],
    walked: u64,
    lines: u64,
) -> Row {
    Row {
        shape,
        step,
        kind,
        allocs,
        bytes,
        live,
        spawned,
        walked,
        lines,
    }
}

use Kind::{Admitting, Doubling, Seal, Steady};

#[rustfmt::skip]
const ROWS: [Row; 17] = [
    row("long_solo", 0, Admitting, 408, 1646880, 88, [0, 3, 6], 73728, 2048),
    row("long_solo", 5, Steady, 121, 15972, 2, [0, 1, 2], 73728, 2048),
    row("long_solo", 8, Seal, 123, 20772, 2, [0, 1, 2], 73728, 2048),
    row("long_solo", 24, Doubling, 121, 15972, 2, [0, 1, 2], 73728, 2048),
    row("short_batch", 0, Admitting, 1570, 7297608, 271, [0, 1, 2], 0, 0),
    row("short_batch", 5, Steady, 875, 170272, 2, [0, 1, 2], 0, 0),
    row("short_batch", 16, Seal, 892, 181792, 2, [0, 1, 2], 0, 0),
    row("short_batch", 32, Doubling, 892, 193312, 2, [0, 1, 2], 0, 0),
    row("shared_fleet", 0, Admitting, 972, 5313336, 123, [0, 9, 18], 73728, 2048),
    row("shared_fleet", 5, Steady, 302, 51336, 2, [0, 1, 2], 73728, 2048),
    row("shared_fleet", 8, Seal, 307, 56328, 2, [0, 1, 2], 73728, 2048),
    row("shared_fleet", 24, Doubling, 302, 51336, 2, [0, 1, 2], 73728, 2048),
    row("bursty", 0, Admitting, 384, 2514652, 65, [0, 5, 7], 40960, 2048),
    row("bursty", 12, Steady, 224, 36452, 2, [0, 1, 3], 0, 0),
    row("bursty", 14, Seal, 225, 36516, 2, [0, 1, 3], 0, 0),
    row("bursty", 9, Doubling, 225, 36516, 2, [0, 1, 3], 0, 0),
    row("long_run", 261, Steady, 121, 15972, 1, [0, 1, 2], 73728, 2048),
];

/// Serves every shape at each of its widths and returns the observed
/// rows, in [`ROWS`]' order and at its steps.
fn observe() -> Vec<Row> {
    let mut out = Vec::new();
    for shape in &SHAPES {
        let runs: Vec<_> = (shape.workers.iter())
            .map(|&w| serve((shape.build)(w)))
            .collect();
        for pinned in ROWS.iter().filter(|r| r.shape == shape.name) {
            let (m, rows, work) = &runs[0][pinned.step];
            assert!(
                pinned.kind.holds(m, rows),
                "{} step {} is not a {:?} step",
                shape.name,
                pinned.step,
                pinned.kind
            );
            let spawned = [0, 1, 2].map(|i| runs[i][pinned.step].2.spawned);
            for (run, w) in runs.iter().zip(shape.workers) {
                assert_eq!(
                    run[pinned.step].2.walk, work.walk,
                    "{} step {}: packed walk at {w} workers",
                    shape.name, pinned.step
                );
            }
            if pinned.kind != Admitting {
                for (run, w) in runs.iter().zip(shape.workers) {
                    assert_eq!(
                        run[pinned.step].2.live, work.live,
                        "{} step {}: live allocations at {w} workers",
                        shape.name, pinned.step
                    );
                }
            }
            out.push(row(
                shape.name,
                pinned.step,
                pinned.kind,
                work.allocs,
                work.bytes,
                work.live,
                spawned,
                work.walk.0,
                work.walk.1,
            ));
        }
    }
    out
}

fn main() {
    let observed = observe();
    if observed != ROWS {
        println!("observed rows:");
        for r in &observed {
            println!(
                "    row({:?}, {}, {:?}, {}, {}, {}, {:?}, {}, {}),",
                r.shape, r.step, r.kind, r.allocs, r.bytes, r.live, r.spawned, r.walked, r.lines
            );
        }
        for (want, got) in ROWS.iter().zip(&observed) {
            if want != got {
                println!("pinned {want:?}\n   got {got:?}");
            }
        }
        panic!("a step's work moved: see the rows above");
    }
    println!("golden_work: {} rows match", ROWS.len());
}
