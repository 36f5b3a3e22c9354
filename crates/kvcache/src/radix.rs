//! Content-addressed radix index over pinned page runs — the tree half of
//! the prefix cache in [`crate::store::PagedKvStore`].
//!
//! Each node covers one **page run**: the smallest span of pages whose
//! token count is a whole number of packed `Nr` blocks (`lcm(Nr,
//! page_tokens)` tokens), so adopting a run never splits a packed block
//! across an adopted/private boundary. Nodes are keyed by a chain hash
//! built **leaf-then-chain**: a leaf is a word fold (`crate::fold`) of one
//! head's packed blocks of one run — code words four to a 64-bit word,
//! `half2` params two, FP4 bytes eight, each slice after its length, over
//! four lanes — started from a fixed seed, and key `r` folds key `r − 1`
//! (the scheme-and-geometry seed before run 0), the run index and run
//! `r`'s leaves in head order. A node's key is therefore a content address
//! for every packed byte of the entire prefix it terminates — position is
//! inherent, two different prefixes of the same bytes-so-far share a
//! path, and a lookup is a walk from the roots — while the leaves, which
//! depend on nothing but their own run and head, can be hashed in
//! parallel. A lane step is a bijection of the word it takes, and every
//! later step and the in-order merge of the lanes are bijections of the
//! state, so one changed word always changes its leaf.
//!
//! A node registered from a prefill additionally carries a 128-bit
//! **source digest** — the same leaf-then-chain construction, each leaf
//! folded over one head's `f32` K then V rows of the run, two values to a
//! word, into two digest lanes of four chains each (eight chains in one
//! pass, each digest lane with its own multiplier and rotation) — and is
//! reachable through a second child map keyed by that digest, so an
//! admission can find its cached runs before it quantizes anything. A
//! node registered by a swap-in (which only ever sees packed bytes) has
//! none until an identical prefill has byte-verified it and supplies one.
//!
//! The index itself stores no payload bytes. It records which physical
//! pages hold each run (the store pins those pages so they survive their
//! sequences) together with the page generations observed at registration,
//! so a recycled or rewritten page is detected before anything adopts it.
//! On the packed path the store additionally byte-verifies candidate runs
//! against the frames on adoption — a chain-hash collision can therefore
//! never alias pages; the source path trusts the digest — which is only
//! ever recorded on a node the recording admission verified or wrote —
//! and one freshly encoded block per head instead (see the store).
//!
//! Eviction works on **subtrees**: when the store needs pages back it
//! repeatedly removes the least-recently-used maximal subtree in which no
//! page is mapped by any live sequence, returning every page of the
//! subtree to the caller for unpinning.

use crate::fold::{Chain, Mix, WordFold};
use crate::paged::PageId;
use std::collections::BTreeMap;

/// Digest of `f32` source rows — one head's run (a leaf) or a whole
/// prefix (a chain state): two independently seeded 64-bit lanes,
/// compared whole.
pub(crate) type SourceDigest = [u64; 2];

/// The two lanes of a source digest as one chain, each with its own
/// multiplier (odd, unrelated) and rotation.
type SourceChain = (
    Mix<5, 0x9E37_79B9_7F4A_7C15>,
    Mix<29, 0xC2B2_AE3D_27D4_EB4F>,
);

/// A digest as the chain state it is.
fn chain(d: SourceDigest) -> SourceChain {
    (Mix(d[0]), Mix(d[1]))
}

/// A chain state as the digest the index keys by.
fn digest((a, b): SourceChain) -> SourceDigest {
    [a.0, b.0]
}

/// Folds one 64-bit word into both lanes of a source digest: a rotate, an
/// xor and one multiply per lane. The chains fold their leaves with it.
pub(crate) fn fold_source_word(d: SourceDigest, word: u64) -> SourceDigest {
    digest(chain(d).step(word))
}

/// Folds rows' raw `f32` bit patterns, two values to a word, into a
/// source digest seeded `seed`: a [`WordFold`] of four lanes per digest
/// lane, eight chains in one pass. The row width is fixed by the store's
/// geometry, so no row folds its length.
pub(crate) fn fold_source_rows<'a>(
    seed: SourceDigest,
    rows: impl Iterator<Item = &'a [f32]>,
) -> SourceDigest {
    let mut fold = WordFold::new(chain(seed));
    for row in rows {
        fold.units(row);
    }
    digest(fold.finish())
}

/// The runs directly below one position of the tree (a node, or the root
/// set), by both of their keys.
#[derive(Clone, Debug, Default)]
struct Children {
    /// By packed chain hash — every child is here.
    by_key: BTreeMap<u64, usize>,
    /// By source digest — each digest leads to the child it was last
    /// recorded on.
    by_source: BTreeMap<SourceDigest, usize>,
}

/// One page run in the index. See the [module docs](self) for the keying
/// and eviction rules.
#[derive(Clone, Debug)]
pub(crate) struct RadixNode {
    /// Chain hash of the whole prefix this run terminates.
    pub key: u64,
    /// Source digest last recorded on this run — the only `by_source`
    /// entry of the parent that can point here.
    source: Option<SourceDigest>,
    /// Physical pages of the run, in table order.
    pub pages: Vec<PageId>,
    /// Pool generation of each page, observed at registration.
    pub gens: Vec<u64>,
    /// Packed payload bytes the run holds (all heads, K and V).
    pub bytes: usize,
    /// Parent node, `None` for a first-run root.
    parent: Option<usize>,
    children: Children,
    /// Logical LRU clock value of the last lookup or registration touch.
    pub last_use: u64,
}

/// The radix tree arena. All bookkeeping is ordered (`BTreeMap`s, index
/// tie-breaks), so identical histories build identical trees and evict in
/// identical order — the property that keeps cached serve runs
/// reproducible bit for bit.
#[derive(Clone, Debug, Default)]
pub(crate) struct RadixIndex {
    nodes: Vec<Option<RadixNode>>,
    free: Vec<usize>,
    roots: Children,
    clock: u64,
}

impl RadixIndex {
    fn children(&self, parent: Option<usize>) -> &Children {
        parent.map_or(&self.roots, |p| &self.node(p).children)
    }

    fn children_mut(&mut self, parent: Option<usize>) -> &mut Children {
        match parent {
            None => &mut self.roots,
            Some(p) => match self.nodes.get_mut(p) {
                Some(Some(n)) => &mut n.children,
                _ => panic!("dangling radix parent id {p}"),
            },
        }
    }

    /// The child of `parent` (or the root) keyed by `key`.
    pub fn child(&self, parent: Option<usize>, key: u64) -> Option<usize> {
        self.children(parent).by_key.get(&key).copied()
    }

    /// The child of `parent` (or the root) that `digest` was last recorded
    /// on.
    pub fn source_child(&self, parent: Option<usize>, digest: SourceDigest) -> Option<usize> {
        self.children(parent).by_source.get(&digest).copied()
    }

    /// Makes `digest` lead to node `id`, replacing whatever either led to
    /// or answered to before. Two siblings share a digest only when the
    /// same rows went through two codecs; the one admitted last keeps it.
    /// The caller must have verified the node's bytes against the rows
    /// behind `digest`, or written them itself.
    pub fn set_source(&mut self, id: usize, digest: SourceDigest) {
        let Some(Some(node)) = self.nodes.get_mut(id) else {
            panic!("dangling radix node id {id}");
        };
        let (parent, old) = (node.parent, node.source.replace(digest));
        let siblings = self.children_mut(parent);
        if let Some(old) = old {
            if siblings.by_source.get(&old) == Some(&id) {
                siblings.by_source.remove(&old);
            }
        }
        siblings.by_source.insert(digest, id);
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id — ids are only valid until their subtree is
    /// removed.
    pub fn node(&self, id: usize) -> &RadixNode {
        match self.nodes.get(id) {
            Some(Some(n)) => n,
            _ => panic!("dangling radix node id {id}"),
        }
    }

    /// Marks a node recently used.
    pub fn touch(&mut self, id: usize) {
        self.clock += 1;
        let clock = self.clock;
        match self.nodes.get_mut(id) {
            Some(Some(n)) => n.last_use = clock,
            _ => panic!("dangling radix node id {id}"),
        }
    }

    /// Inserts a new run under `parent` (or as a root) and returns its id.
    pub fn insert(
        &mut self,
        parent: Option<usize>,
        key: u64,
        pages: Vec<PageId>,
        gens: Vec<u64>,
        bytes: usize,
    ) -> usize {
        self.clock += 1;
        let node = RadixNode {
            key,
            source: None,
            pages,
            gens,
            bytes,
            parent,
            children: Children::default(),
            last_use: self.clock,
        };
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = Some(node);
                slot
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        };
        let prev = self.children_mut(parent).by_key.insert(key, id);
        debug_assert!(prev.is_none(), "duplicate child key");
        id
    }

    /// Removes a node and its whole subtree, returning every page the
    /// subtree held (parent-first order) so the caller can unpin them.
    pub fn remove_subtree(&mut self, id: usize) -> Vec<PageId> {
        // Detach from the parent (or the root set) first.
        let (parent, key, source) = {
            let n = self.node(id);
            (n.parent, n.key, n.source)
        };
        let siblings = self.children_mut(parent);
        siblings.by_key.remove(&key);
        if let Some(digest) = source {
            if siblings.by_source.get(&digest) == Some(&id) {
                siblings.by_source.remove(&digest);
            }
        }
        let mut pages = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            let Some(node) = self.nodes.get_mut(cur).and_then(Option::take) else {
                panic!("dangling radix node id {cur}");
            };
            pages.extend(node.pages);
            stack.extend(node.children.by_key.values().copied());
            self.free.push(cur);
        }
        pages
    }

    /// Whether every page of the subtree rooted at `id` satisfies
    /// `evictable`, together with the subtree's most recent use.
    fn subtree_info(&self, id: usize, evictable: &impl Fn(PageId) -> bool) -> (bool, u64) {
        let n = self.node(id);
        let mut clean = n.pages.iter().all(|&p| evictable(p));
        let mut recency = n.last_use;
        for &c in n.children.by_key.values() {
            let (child_clean, child_recency) = self.subtree_info(c, evictable);
            clean &= child_clean;
            recency = recency.max(child_recency);
        }
        (clean, recency)
    }

    /// Removes the least-recently-used **maximal** subtree in which every
    /// page satisfies `evictable`, returning its pages — or `None` when no
    /// such subtree exists. Recency of a subtree is its most recent use;
    /// ties break on the lower node id, keeping eviction deterministic.
    pub fn evict_lru_subtree(
        &mut self,
        evictable: &impl Fn(PageId) -> bool,
    ) -> Option<Vec<PageId>> {
        let mut best: Option<(u64, usize)> = None;
        let mut stack: Vec<usize> = self.roots.by_key.values().copied().collect();
        while let Some(id) = stack.pop() {
            let (clean, recency) = self.subtree_info(id, evictable);
            if clean {
                let better =
                    best.is_none_or(|(br, bid)| recency < br || (recency == br && id < bid));
                if better {
                    best = Some((recency, id));
                }
            } else {
                stack.extend(self.node(id).children.by_key.values().copied());
            }
        }
        best.map(|(_, id)| self.remove_subtree(id))
    }

    /// Number of live runs in the index.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// Every page the index currently holds, in arena order — the leak
    /// audit surface: this must equal the store's pinned-page set exactly.
    pub fn all_pages(&self) -> Vec<PageId> {
        self.nodes
            .iter()
            .flatten()
            .flat_map(|n| n.pages.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(ids: &[u32]) -> Vec<PageId> {
        ids.iter().map(|&p| PageId(p)).collect()
    }

    #[test]
    fn chain_walk_and_touch() {
        let mut idx = RadixIndex::default();
        let a = idx.insert(None, 10, pages(&[0, 1]), vec![0, 0], 100);
        let b = idx.insert(Some(a), 20, pages(&[2, 3]), vec![0, 0], 100);
        assert_eq!(idx.child(None, 10), Some(a));
        assert_eq!(idx.child(Some(a), 20), Some(b));
        assert_eq!(idx.child(Some(a), 99), None);
        assert_eq!(idx.child(None, 20), None);
        assert_eq!(idx.node_count(), 2);
        let before = idx.node(a).last_use;
        idx.touch(a);
        assert!(idx.node(a).last_use > before);
    }

    #[test]
    fn source_lookup_follows_the_node_it_was_last_recorded_on() {
        let mut idx = RadixIndex::default();
        let a = idx.insert(None, 10, pages(&[0]), vec![0], 1);
        let b = idx.insert(Some(a), 20, pages(&[1]), vec![0], 1);
        let twin = idx.insert(Some(a), 21, pages(&[2]), vec![0], 1);
        assert_eq!(idx.source_child(Some(a), [7, 70]), None, "no digest yet");
        idx.set_source(b, [7, 70]);
        assert_eq!(idx.source_child(Some(a), [7, 70]), Some(b));
        assert_eq!(
            idx.source_child(None, [7, 70]),
            None,
            "position is part of the key"
        );
        // Digests that differ in either lane are different keys.
        idx.set_source(twin, [7, 71]);
        assert_eq!(idx.source_child(Some(a), [7, 70]), Some(b));
        assert_eq!(idx.source_child(Some(a), [7, 71]), Some(twin));
        assert_eq!(idx.source_child(Some(a), [8, 70]), None);
        // A new digest on a node retires the node's old one ...
        idx.set_source(b, [8, 80]);
        assert_eq!(idx.source_child(Some(a), [7, 70]), None);
        assert_eq!(idx.source_child(Some(a), [8, 80]), Some(b));
        // ... and a digest two siblings share leads to the latest, whose
        // removal must not leave it dangling or take the other's entry.
        idx.set_source(twin, [8, 80]);
        assert_eq!(idx.source_child(Some(a), [8, 80]), Some(twin));
        assert_eq!(idx.source_child(Some(a), [7, 71]), None);
        idx.remove_subtree(b);
        assert_eq!(idx.source_child(Some(a), [8, 80]), Some(twin));
        idx.remove_subtree(twin);
        assert_eq!(idx.source_child(Some(a), [8, 80]), None);
    }

    #[test]
    fn remove_subtree_collects_descendants_and_recycles_slots() {
        let mut idx = RadixIndex::default();
        let a = idx.insert(None, 1, pages(&[0]), vec![0], 1);
        let b = idx.insert(Some(a), 2, pages(&[1]), vec![0], 1);
        let _c = idx.insert(Some(b), 3, pages(&[2, 3]), vec![0, 0], 2);
        let other = idx.insert(None, 9, pages(&[7]), vec![0], 1);
        let mut removed = idx.remove_subtree(b);
        removed.sort();
        assert_eq!(removed, pages(&[1, 2, 3]));
        assert_eq!(idx.node_count(), 2);
        assert_eq!(idx.child(Some(a), 2), None);
        assert_eq!(idx.child(None, 9), Some(other));
        // Freed arena slots are reused.
        let d = idx.insert(Some(a), 4, pages(&[5]), vec![0], 1);
        assert!(d == b || d < idx.nodes.len());
        assert_eq!(idx.child(Some(a), 4), Some(d));
    }

    #[test]
    fn lru_eviction_takes_the_coldest_clean_subtree() {
        let mut idx = RadixIndex::default();
        let a = idx.insert(None, 1, pages(&[0]), vec![0], 1); // cold chain
        let _a2 = idx.insert(Some(a), 2, pages(&[1]), vec![0], 1);
        let b = idx.insert(None, 5, pages(&[2]), vec![0], 1); // warm chain
        idx.touch(b);
        // Everything evictable: the coldest maximal subtree is chain `a`.
        let mut evicted = idx.evict_lru_subtree(&|_| true).unwrap();
        evicted.sort();
        assert_eq!(evicted, pages(&[0, 1]));
        assert_eq!(idx.node_count(), 1);
        // Only `b` remains; evicting again removes it, then nothing.
        assert_eq!(idx.evict_lru_subtree(&|_| true).unwrap(), pages(&[2]));
        assert!(idx.evict_lru_subtree(&|_| true).is_none());
    }

    #[test]
    fn referenced_pages_pin_their_ancestors_out_of_eviction() {
        let mut idx = RadixIndex::default();
        let a = idx.insert(None, 1, pages(&[0]), vec![0], 1);
        let b = idx.insert(Some(a), 2, pages(&[1]), vec![0], 1);
        let _deep = idx.insert(Some(b), 3, pages(&[2]), vec![0], 1);
        // Page 1 (middle run) is still mapped by a sequence: only the
        // deep run below it is evictable — not the root, not the chain.
        let evicted = idx.evict_lru_subtree(&|p| p != PageId(1)).unwrap();
        assert_eq!(evicted, pages(&[2]));
        assert_eq!(idx.node_count(), 2);
        // Now nothing below the referenced run remains evictable except
        // nothing — the referenced run blocks its whole subtree.
        assert!(idx.evict_lru_subtree(&|p| p != PageId(1)).is_none());
    }

    #[test]
    fn all_pages_reports_the_full_holding() {
        let mut idx = RadixIndex::default();
        let a = idx.insert(None, 1, pages(&[4, 5]), vec![0, 0], 1);
        idx.insert(Some(a), 2, pages(&[6]), vec![0], 1);
        let mut all = idx.all_pages();
        all.sort();
        assert_eq!(all, pages(&[4, 5, 6]));
    }
}
