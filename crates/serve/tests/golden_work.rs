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
//!   frees the boxed closure it runs, so none escapes the count).
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
use bd_kvcache::{Partitioning, QuantScheme, SeqId};
use bd_serve::{FcfsPreempt, ServeConfig, ServeMetrics, ServeSession, SynthSequence};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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

/// Every step of a session: its metrics, the window rows it started
/// from, and its work, counted.
fn serve(mut s: ServeSession) -> Vec<(ServeMetrics, Vec<usize>, Work)> {
    let mut out = Vec::new();
    loop {
        let before = windows(&s);
        let (m, work) = counted(|| s.step());
        let Some(m) = m else { break };
        out.push((m, before, work));
    }
    out
}

const SHAPES: [Shape; 4] = [
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
/// width (1, or 0 for the 2-device shape); `spawned` is per width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    shape: &'static str,
    step: usize,
    kind: Kind,
    allocs: u64,
    bytes: u64,
    live: i64,
    spawned: [u64; 3],
}

const fn row(
    shape: &'static str,
    step: usize,
    kind: Kind,
    allocs: u64,
    bytes: u64,
    live: i64,
    spawned: [u64; 3],
) -> Row {
    Row {
        shape,
        step,
        kind,
        allocs,
        bytes,
        live,
        spawned,
    }
}

use Kind::{Admitting, Doubling, Seal, Steady};

#[rustfmt::skip]
const ROWS: [Row; 16] = [
    row("long_solo", 0, Admitting, 411, 1655296, 88, [0, 3, 6]),
    row("long_solo", 5, Steady, 124, 16196, 2, [0, 1, 2]),
    row("long_solo", 8, Seal, 126, 20996, 2, [0, 1, 2]),
    row("long_solo", 24, Doubling, 124, 16196, 2, [0, 1, 2]),
    row("short_batch", 0, Admitting, 1573, 7297832, 271, [0, 1, 2]),
    row("short_batch", 5, Steady, 878, 170496, 2, [0, 1, 2]),
    row("short_batch", 16, Seal, 895, 182016, 2, [0, 1, 2]),
    row("short_batch", 32, Doubling, 895, 193536, 2, [0, 1, 2]),
    row("shared_fleet", 0, Admitting, 975, 5313560, 123, [0, 9, 18]),
    row("shared_fleet", 5, Steady, 305, 51560, 2, [0, 1, 2]),
    row("shared_fleet", 8, Seal, 310, 56552, 2, [0, 1, 2]),
    row("shared_fleet", 24, Doubling, 305, 51560, 2, [0, 1, 2]),
    row("bursty", 0, Admitting, 387, 2514876, 65, [0, 5, 7]),
    row("bursty", 12, Steady, 227, 36676, 2, [0, 1, 3]),
    row("bursty", 14, Seal, 228, 36740, 2, [0, 1, 3]),
    row("bursty", 9, Doubling, 228, 36740, 2, [0, 1, 3]),
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
                "    row({:?}, {}, {:?}, {}, {}, {}, {:?}),",
                r.shape, r.step, r.kind, r.allocs, r.bytes, r.live, r.spawned
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
