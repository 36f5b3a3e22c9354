//! A decode launch's split borrow: every device's pages shared, each
//! listed sequence's residual windows exclusive.
//!
//! A serve decode step reads packed blocks and residual windows from many
//! threads at once, then appends one K/V row per head to each sequence. An
//! append that neither flushes a block nor grows the page table touches
//! only that sequence's own windows and length, so it can land on the
//! launch — by whichever thread finishes the sequence — while the other
//! threads still read other sequences. [`ShardedKvStore::split_for_launch`]
//! hands out exactly those borrows: one [`LaunchPages`] (every device's
//! page tables and arenas, read-only) and one [`LaunchSeq`] per listed
//! sequence (its windows and length on every device, by `&mut`). Nothing
//! else of the store can change until they are dropped.
//!
//! [`LaunchSeq::append_in_window`] does to the windows exactly what
//! [`ShardedKvStore::append_step`] does — the same FP16 rounding, the same
//! panel written by a sealing push, into storage the window has had since
//! its creation — and refuses, changing nothing, every append that would
//! flush, grow, or fail one of `append_step`'s checks; the caller sends
//! those through `append_step` once the borrows end. A history that mixes
//! the two is therefore bitwise identical to one of `append_step` alone.

use super::{gather, Frame, SeqKv};
use crate::block::PackedBlock;
use crate::cache::push_rounded;
use crate::matrix::TokenMatrix;
use crate::paged::{PagedPool, SeqId};
use crate::placement::{DeviceId, Placement};
use crate::sharded::ShardedKvStore;
use crate::window::KeyWindow;

/// Every device's page tables and page arena, read-only, for one decode
/// launch: the shared half of [`ShardedKvStore::split_for_launch`].
#[derive(Debug)]
pub struct LaunchPages<'a> {
    placement: &'a Placement,
    devices: Vec<(&'a PagedPool, &'a [Frame])>,
    residual_block: usize,
}

/// One sequence's residual windows and length on every device, held
/// exclusively for one decode launch: the per-sequence half of
/// [`ShardedKvStore::split_for_launch`].
#[derive(Debug)]
pub struct LaunchSeq<'a> {
    seq: SeqId,
    placement: &'a Placement,
    /// The sequence's state on each device, in device order.
    devices: Vec<&'a mut SeqKv>,
    /// Tokens the sequence's page tables cover on every device.
    reserved: usize,
    residual_block: usize,
    dim: usize,
}

impl ShardedKvStore {
    /// Splits the store for one decode launch over `seqs`: every device's
    /// pages, shared, and — in the order listed — one [`LaunchSeq`] per
    /// sequence holding its residual windows on every device. A window
    /// has all of its storage from its creation, so the launch's threads
    /// allocate nothing in one.
    ///
    /// The launch's threads read pages and windows; the thread finishing a
    /// sequence appends its next token in place while the others still
    /// read other sequences. An append that flushes, grows the pages or
    /// fails a check is refused and goes through
    /// [`ShardedKvStore::append_step`] once the borrows end, so a history
    /// mixing the two stores the bytes of `append_step` alone.
    ///
    /// # Panics
    ///
    /// Panics if a listed sequence is not resident or is listed twice.
    pub fn split_for_launch(&mut self, seqs: &[SeqId]) -> (LaunchPages<'_>, Vec<LaunchSeq<'_>>) {
        let (placement, stores) = self.parts_mut();
        let residual_block = stores[0].residual_block();
        let dim = stores[0].config().dim;
        let mut launch_seqs: Vec<LaunchSeq<'_>> = (seqs.iter())
            .map(|&seq| LaunchSeq {
                seq,
                placement,
                devices: Vec::with_capacity(stores.len()),
                reserved: usize::MAX,
                residual_block,
                dim,
            })
            .collect();
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        order.sort_unstable_by_key(|&i| seqs[i]);
        let mut devices = Vec::with_capacity(stores.len());
        for store in stores.iter_mut() {
            // One walk of the resident map against the sorted listing.
            let mut listed = order.iter().copied().peekable();
            for (&id, kv) in &mut store.seqs {
                if let Some(i) = listed.next_if(|&i| seqs[i] == id) {
                    let s = &mut launch_seqs[i];
                    s.reserved = s.reserved.min(store.pool.seq_len(id).unwrap_or(0));
                    s.devices.push(kv);
                }
            }
            assert!(
                listed.next().is_none(),
                "a sequence listed for the launch is not resident or is listed twice"
            );
            devices.push((&store.pool, &store.frames[..]));
        }
        let pages = LaunchPages {
            placement,
            devices,
            residual_block,
        };
        (pages, launch_seqs)
    }
}

impl LaunchPages<'_> {
    /// The placement mapping heads to devices.
    pub fn placement(&self) -> &Placement {
        self.placement
    }

    /// `seq`'s packed blocks of local head `local` on device `device`,
    /// gathered through that device's page table: what
    /// [`crate::PagedKvStore::packed_blocks`] returns there.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range device or head.
    pub fn packed_blocks(
        &self,
        device: DeviceId,
        seq: &LaunchSeq<'_>,
        local: usize,
    ) -> Vec<&PackedBlock> {
        let d = device.0 as usize;
        let (pool, frames) = self.devices[d];
        let own = seq.devices[d].len / self.residual_block;
        gather(pool, frames, seq.seq, local, own)
    }
}

impl LaunchSeq<'_> {
    /// The sequence.
    pub fn seq(&self) -> SeqId {
        self.seq
    }

    /// Local head `local`'s residual window on device `device`: what
    /// [`crate::PagedKvStore::residual_window`] returns there.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range device or head.
    pub fn residual_window(&self, device: DeviceId, local: usize) -> (&KeyWindow, &TokenMatrix) {
        let kv = &self.devices[device.0 as usize];
        (&kv.residual_k[local], &kv.residual_v[local])
    }

    /// Appends one decode-step token — one K/V row per **global** head —
    /// when it stays inside the windows: it must not complete a block, must
    /// fit the pages already reserved, and must pass every check of
    /// [`ShardedKvStore::append_step`] (sequence not sealed, one row per
    /// head, every row `dim` wide). Returns whether it appended; on `false`
    /// nothing changed, and the append belongs to `append_step`.
    pub fn append_in_window<R: AsRef<[f32]>>(&mut self, k_rows: &[R], v_rows: &[R]) -> bool {
        let heads = self.placement.heads();
        let fits = k_rows.len() == heads
            && v_rows.len() == heads
            && k_rows
                .iter()
                .chain(v_rows)
                .all(|r| r.as_ref().len() == self.dim)
            && self.devices.iter().all(|kv| {
                !kv.sealed
                    && kv.len < self.reserved
                    && (kv.residual_k.iter()).all(|w| w.tokens() + 1 < self.residual_block)
            });
        if !fits {
            return false;
        }
        for (head, (k, v)) in k_rows.iter().zip(v_rows).enumerate() {
            let kv = &mut self.devices[self.placement.device_of(head).0 as usize];
            let local = self.placement.local_index(head);
            kv.residual_k[local].push(k.as_ref());
            push_rounded(&mut kv.residual_v[local], v.as_ref());
        }
        for kv in &mut self.devices {
            kv.len += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::codec::ReferenceCodec;
    use crate::layout::PackLayout;
    use crate::placement::Partitioning;
    use crate::scheme::QuantScheme;

    const DIM: usize = 16;
    const HEADS: usize = 4;

    fn store(devices: usize, part: Partitioning) -> ShardedKvStore {
        let cfg = CacheConfig::new(DIM, QuantScheme::kc4(), PackLayout::sm80_default());
        ShardedKvStore::new(cfg, Placement::new(devices, part, HEADS), 64, 24)
    }

    /// Token `t`'s K or V rows for every head.
    fn rows(t: usize, salt: usize) -> Vec<Vec<f32>> {
        (0..HEADS)
            .map(|h| {
                (0..DIM)
                    .map(|c| ((t * 131 + h * DIM + c + salt) as f32 * 0.37).sin() * 3.0)
                    .collect()
            })
            .collect()
    }

    /// Whether two stores hold `seq` bitwise alike: length, every head's
    /// packed blocks and residual rows, and valid panel slots.
    fn same(a: &ShardedKvStore, b: &ShardedKvStore, seq: SeqId) -> bool {
        a.seq_len(seq) == b.seq_len(seq)
            && (0..HEADS).all(|h| {
                a.packed_blocks(seq, h) == b.packed_blocks(seq, h)
                    && a.residual(seq, h) == b.residual(seq, h)
            })
            && (0..b.devices()).all(|d| {
                let dev = b.device(DeviceId(d as u32));
                (0..dev.heads()).all(|l| dev.residual_window(seq, l).0.panels_match_rows())
            })
    }

    /// Every window buffer of `seq` on every device.
    fn storage(s: &ShardedKvStore, seq: SeqId) -> Vec<[(*const f32, usize); 3]> {
        (0..s.devices())
            .flat_map(|d| crate::store::tests::window_storage(s.device(DeviceId(d as u32)), seq))
            .collect()
    }

    #[test]
    fn in_window_appends_match_append_step_bitwise() {
        // A parent and a child forked off it at the first block boundary,
        // both appended past a flush into the shared page (a CoW break):
        // one store only through `append_step`, its twin through
        // `append_in_window` wherever that takes the append. The twin's
        // windows never move.
        let codec = ReferenceCodec;
        for devices in [1, 2, 3] {
            for part in [Partitioning::HeadModulo, Partitioning::HeadContiguous] {
                let mut plain = store(devices, part);
                let mut split = store(devices, part);
                let nr = plain.config().residual_block();
                let mut seqs = Vec::new();
                for s in [&mut plain, &mut split] {
                    let parent = s.admit(3 * nr).unwrap();
                    for t in 0..(nr + 8) {
                        s.append_step(parent, &rows(t, 0), &rows(t, 1), &codec)
                            .unwrap();
                    }
                    seqs = vec![parent, s.fork(parent, nr, 3 * nr).unwrap()];
                }
                let mut lens = [nr + 8, nr];
                let mut taken = 0;
                let buffers: Vec<_> = seqs.iter().map(|&seq| storage(&split, seq)).collect();
                for t in 0..(nr + 4) {
                    let outs: Vec<_> = (0..2)
                        .map(|i| (rows(t, 2 * i + 2), rows(t, 2 * i + 3)))
                        .collect();
                    for (&seq, (k, v)) in seqs.iter().zip(&outs) {
                        plain.append_step(seq, k, v, &codec).unwrap();
                    }
                    let mut refused = Vec::new();
                    let (pages, mut launch) = split.split_for_launch(&seqs);
                    for (i, (l, (k, v))) in launch.iter_mut().zip(&outs).enumerate() {
                        let took = l.append_in_window(k, v);
                        assert_eq!(took, !(lens[i] + 1).is_multiple_of(nr), "t={t} seq {i}");
                        if took {
                            taken += 1;
                        } else {
                            refused.push(i);
                        }
                        lens[i] += 1;
                    }
                    drop((pages, launch));
                    for i in refused {
                        split
                            .append_step(seqs[i], &outs[i].0, &outs[i].1, &codec)
                            .unwrap();
                    }
                    for (&seq, buffers) in seqs.iter().zip(&buffers) {
                        assert!(same(&plain, &split, seq), "devices={devices} {part} t={t}");
                        assert_eq!(&storage(&split, seq), buffers, "t={t}");
                    }
                }
                assert_eq!(taken, 2 * (nr + 4) - 2);
                assert!(plain.cow_breaks() > 0);
                assert_eq!(plain.cow_breaks(), split.cow_breaks());
            }
        }
    }

    #[test]
    fn split_pages_gather_what_the_store_gathers() {
        let codec = ReferenceCodec;
        let mut s = store(2, Partitioning::HeadModulo);
        let nr = s.config().residual_block();
        let a = s.admit(0).unwrap();
        let b = s.admit(0).unwrap();
        for t in 0..(nr + 9) {
            s.append_step(a, &rows(t, 0), &rows(t, 1), &codec).unwrap();
            s.append_step(b, &rows(t, 5), &rows(t, 6), &codec).unwrap();
        }
        let want: Vec<Vec<Vec<PackedBlock>>> = [b, a]
            .iter()
            .map(|&seq| {
                (0..HEADS)
                    .map(|h| s.packed_blocks(seq, h).into_iter().cloned().collect())
                    .collect()
            })
            .collect();
        let residuals: Vec<Vec<(TokenMatrix, TokenMatrix)>> = [b, a]
            .iter()
            .map(|&seq| {
                (0..HEADS)
                    .map(|h| {
                        let (k, v) = s.residual(seq, h);
                        (k.clone(), v.clone())
                    })
                    .collect()
            })
            .collect();
        let (pages, launch) = s.split_for_launch(&[b, a]);
        for ((l, want), residuals) in launch.iter().zip(&want).zip(&residuals) {
            for h in 0..HEADS {
                let dev = pages.placement().device_of(h);
                let local = pages.placement().local_index(h);
                let got: Vec<PackedBlock> = pages
                    .packed_blocks(dev, l, local)
                    .into_iter()
                    .cloned()
                    .collect();
                assert_eq!(got, want[h]);
                let (k, v) = l.residual_window(dev, local);
                assert_eq!((k.rows(), v), (&residuals[h].0, &residuals[h].1));
            }
        }
        assert_eq!(launch[0].seq(), b);
    }

    #[test]
    fn an_append_the_window_cannot_take_changes_nothing() {
        let codec = ReferenceCodec;
        let mut s = store(2, Partitioning::HeadModulo);
        // Reserve 3 tokens only: the fourth append must grow the pages.
        let seq = s.admit(3).unwrap();
        let narrow: Vec<Vec<f32>> = (0..HEADS).map(|_| vec![0.0; DIM - 1]).collect();
        for t in 0..3 {
            let (_, mut launch) = s.split_for_launch(&[seq]);
            let l = &mut launch[0];
            assert!(!l.append_in_window(&rows(t, 0)[..3], &rows(t, 1)[..3]));
            assert!(!l.append_in_window(&narrow, &rows(t, 1)));
            assert!(l.append_in_window(&rows(t, 0), &rows(t, 1)));
        }
        let before = s.clone();
        let (_, mut launch) = s.split_for_launch(&[seq]);
        assert!(!launch[0].append_in_window(&rows(3, 0), &rows(3, 1)));
        drop(launch);
        assert!(same(&before, &s, seq));
        s.append_step(seq, &rows(3, 0), &rows(3, 1), &codec)
            .unwrap();
        s.seal(seq).unwrap();
        let (_, mut launch) = s.split_for_launch(&[seq]);
        assert!(!launch[0].append_in_window(&rows(4, 0), &rows(4, 1)));
    }

    #[test]
    #[should_panic(expected = "not resident or is listed twice")]
    fn a_sequence_listed_twice_panics() {
        let mut s = store(1, Partitioning::HeadModulo);
        let seq = s.admit(0).unwrap();
        let _ = s.split_for_launch(&[seq, seq]);
    }
}
