//! One scoped launch: the kernel-launch shape of every parallel pass in
//! the system — a decode step's attention units (`bd-serve`'s
//! `run_units`), prompt admission's bulk passes in
//! [`crate::PagedKvStore`] and `bd-core`'s `BitDecoder::decode` head
//! fan-out.
//!
//! `tasks` independent indices are drained from one shared cursor by up to
//! `threads` threads, the calling thread the last of them, and every
//! result lands in its index's slot. Each index is claimed exactly once, so
//! no result depends on which thread ran it or on how many threads there
//! were.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `task(i)` for every `i` in `0..tasks` and returns the results in
/// index order.
///
/// `threads` is the launch width, the calling thread included: the call
/// spawns `min(threads, tasks) − 1` scoped threads and then drains the
/// cursor itself, so a launch of fewer than 2 tasks (or of width ≤ 1)
/// spawns nothing and runs inline through the same code. The threads
/// borrow whatever `task` captures for the call only.
///
/// A slot is `None` when the spawned thread running its task panicked;
/// the caller decides what that means. A panic on the calling thread
/// propagates as usual.
pub fn launch<T: Send + Sync>(
    tasks: usize,
    threads: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<Option<T>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..tasks).map(|_| OnceLock::new()).collect();
    let drain = || loop {
        // `Relaxed`: the cursor publishes no data. Each result reaches the
        // caller through its slot's `OnceLock` and the join below.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { return };
        // The cursor hands out every index once, so the slot is empty.
        let _ = slot.set(task(i));
    };
    let spawns = threads.min(tasks).saturating_sub(1);
    std::thread::scope(|s| {
        let spawned: Vec<_> = (0..spawns).map(|_| s.spawn(drain)).collect();
        drain();
        for handle in spawned {
            // A panicked thread leaves the slot of the task it was running
            // empty; the caller reads that as a lost task.
            let _ = handle.join();
        }
    });
    slots.into_iter().map(OnceLock::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_positional_at_every_width() {
        for threads in [0, 1, 2, 3, 8] {
            for tasks in [0, 1, 2, 7] {
                let got = launch(tasks, threads, |i| i * i);
                let want: Vec<Option<usize>> = (0..tasks).map(|i| Some(i * i)).collect();
                assert_eq!(got, want, "threads={threads} tasks={tasks}");
            }
        }
    }

    #[test]
    fn a_panicked_spawned_thread_leaves_only_its_slot_empty() {
        // The calling thread holds its first task until the spawned thread
        // has claimed one — and panicked in it; the caller drains the rest.
        let caller = std::thread::current().id();
        let spawned_claimed = std::sync::atomic::AtomicBool::new(false);
        let got = launch(4, 2, |i| {
            if std::thread::current().id() != caller {
                spawned_claimed.store(true, Ordering::SeqCst);
                panic!("the spawned thread dies in task {i}");
            }
            while !spawned_claimed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(got.iter().filter(|slot| slot.is_none()).count(), 1);
        for (i, slot) in got.iter().enumerate() {
            assert!(slot.is_none() || *slot == Some(i));
        }
    }
}
