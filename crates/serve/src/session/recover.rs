//! Fault recovery: rebuilding the fleet around a lost device, and the
//! page seizures ("hogs") a pool-exhaustion fault holds against admission.

use super::{
    build_placement, build_store, PageHog, QueueEntry, RequestEvent, RequestId, ServeSession,
};
use bd_kvcache::SeqId;

impl ServeSession {
    /// Kills one device: every KV page it held is gone. The session
    /// quarantines it by rebuilding the [`Placement`] over the surviving
    /// device count (fresh pools, so SeqId lockstep restarts cleanly),
    /// re-seizes any still-live fault hogs, and converts every resident
    /// sequence and parked swap blob into a recompute-from-prompt entry
    /// at the **front** of the queue — policy-visible and in admission
    /// order. Already-streamed tokens are re-derived bitwise during the
    /// replay, so a completed stream is unaffected by *when* the loss
    /// struck.
    pub(super) fn lose_device(&mut self, dead: usize) {
        let live = self.store.devices();
        let dead = dead % live.max(1);
        self.lost_devices.push(dead);
        let survivors = live.saturating_sub(1).max(1);
        let heads = self.decoder.attention().heads_kv;
        // Prune the dead device's weight in lockstep (if the fleet is
        // weighted) so the rebuilt placement re-apportions heads by the
        // survivors' modeled throughput.
        if self.device_weights.len() == live && survivors < live {
            self.device_weights.remove(dead);
        }
        let placement = build_placement(
            survivors,
            self.config.partitioning,
            &self.device_weights,
            heads,
        );
        self.store = build_store(&self.decoder, placement, &self.config);
        // Recovery: every resident sequence lost its share on the dead
        // device, and every parked swap blob was cut for the old device
        // count — both recompute from the prompt.
        let mut recovered: Vec<RequestId> = Vec::new();
        for entry in &mut self.pending {
            if entry.resume.take().is_some() {
                entry.model.reset();
                self.ledger.recoveries += 1;
                recovered.push(entry.id);
            }
        }
        let actives = std::mem::take(&mut self.active);
        for a in actives.into_iter().rev() {
            let mut model = a.model;
            model.reset();
            self.ledger.recoveries += 1;
            recovered.push(a.id);
            self.pending.push_front(QueueEntry::fresh(a.id, model));
        }
        for id in recovered {
            self.observe(id, RequestEvent::Recovered);
        }
        // Fault-seized pages died with the old pools; re-seize the
        // survivors' share so a pending exhaustion keeps its pressure.
        let hogs = std::mem::take(&mut self.hogs);
        for hog in hogs {
            self.seize_pages(hog.pages, hog.release);
        }
    }

    /// Seizes `pages` pages on every device (clamped to what is free) via
    /// a hog reservation the scheduler cannot preempt, releasing it at
    /// step `release` (`None` = when the run ends).
    pub(super) fn seize_pages(&mut self, pages: usize, release: Option<usize>) {
        let pages = pages.min(self.store.min_free_pages());
        if pages == 0 {
            return;
        }
        let tokens = pages * self.config.page_tokens;
        if let Ok(seq) = self.store.admit(tokens) {
            self.hogs.push(PageHog {
                seq,
                pages,
                release,
            });
        }
    }

    /// Releases fault-seized hogs whose hold expired at or before the
    /// current step.
    pub(super) fn release_expired_hogs(&mut self) {
        let now = self.step_index;
        let expired: Vec<SeqId> = self
            .hogs
            .iter()
            .filter(|h| h.release.is_some_and(|r| r <= now))
            .map(|h| h.seq)
            .collect();
        for seq in expired {
            self.store.evict(seq);
        }
        self.hogs.retain(|h| h.release.is_none_or(|r| r > now));
    }

    /// Releases every remaining hog — the run is over, so seized pages go
    /// back to the pool and drain accounting balances.
    pub(super) fn release_all_hogs(&mut self) {
        let hogs = std::mem::take(&mut self.hogs);
        for hog in hogs {
            self.store.evict(hog.seq);
        }
    }

    /// Pages per device seized with no scheduled release — capacity a
    /// permanent pool-exhaustion fault withholds for the rest of the run.
    pub(super) fn seized_forever_pages(&self) -> usize {
        self.hogs
            .iter()
            .filter(|h| h.release.is_none())
            .map(|h| h.pages)
            .sum()
    }
}
