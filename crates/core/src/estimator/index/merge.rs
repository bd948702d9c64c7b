//! Shared merge machinery: per-node runs, the deterministic merges of
//! sorted runs, and the prefix/suffix structure-of-arrays every index
//! variant queries.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::iter::Zip;
use std::slice;

use prc_net::message::SampleEntry;
use prc_runtime::{CutoffPolicy, Runtime};

use crate::estimator::engine;
use crate::query::RangeQuery;

/// One source of a merge: a node's rank-sorted entry slice plus its
/// claimed population `n_i`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunSource<'a> {
    pub entries: &'a [SampleEntry],
    pub population: i64,
}

/// One merged entry, ordered ascending by `(value, node, rank)` — a
/// total order because `(node, rank)` is unique, so the merged order
/// (and the arrays it produces) is deterministic regardless of sharding,
/// thread count, or how the entries were grouped into runs.
///
/// A node's entries in rank order are value-sorted under
/// [`f64::total_cmp`] (nodes sort their data that way), so each node's
/// entries form one ascending run of keys.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MergeKey {
    pub value: f64,
    /// Dense node index: the node's position among the merge's sources.
    pub node: u32,
    /// The entry's 1-based rank within its node's data.
    pub rank: u32,
}

impl PartialEq for MergeKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeKey {}
impl PartialOrd for MergeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value
            .total_cmp(&other.value)
            .then_with(|| self.node.cmp(&other.node))
            .then_with(|| self.rank.cmp(&other.rank))
    }
}

/// An ascending sequence of merge keys in structure-of-arrays form:
/// entry `j` is `values[j]` of dense node `nodes[j]` at rank `ranks[j]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sequence {
    values: Vec<f64>,
    nodes: Vec<u32>,
    ranks: Vec<u32>,
}

impl Sequence {
    fn with_capacity(capacity: usize) -> Sequence {
        Sequence {
            values: Vec::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            ranks: Vec::with_capacity(capacity),
        }
    }

    /// Collects ascending keys.
    pub fn from_sorted(keys: &[MergeKey]) -> Sequence {
        let mut sequence = Sequence::with_capacity(keys.len());
        for &key in keys {
            sequence.push(key);
        }
        sequence
    }

    fn push(&mut self, key: MergeKey) {
        self.values.push(key.value);
        self.nodes.push(key.node);
        self.ranks.push(key.rank);
    }

    fn len(&self) -> usize {
        self.values.len()
    }
}

/// The unread entries of one input of [`merge_linear`]: a sequence
/// whose dense node `d` is renamed `remap[d]`, entries of nodes remapped
/// to `None` skipped (`remap: None` keeps every node as it is).
struct Cursor<'a> {
    entries: Zip<Zip<slice::Iter<'a, f64>, slice::Iter<'a, u32>>, slice::Iter<'a, u32>>,
    remap: Option<&'a [Option<u32>]>,
}

impl<'a> Cursor<'a> {
    fn new(sequence: &'a Sequence, remap: Option<&'a [Option<u32>]>) -> Cursor<'a> {
        let entries = sequence
            .values
            .iter()
            .zip(&sequence.nodes)
            .zip(&sequence.ranks);
        Cursor { entries, remap }
    }

    /// The next kept key.
    fn next_key(&mut self) -> Option<MergeKey> {
        for ((&value, &node), &rank) in &mut self.entries {
            let node = match self.remap {
                None => Some(node),
                Some(remap) => remap.get(node as usize).copied().flatten(),
            };
            if let Some(node) = node {
                return Some(MergeKey { value, node, rank });
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Merges a few ascending inputs into one sequence in linear time: each
/// step scans the heads for the smallest, then copies that input's
/// whole stretch below the runner-up. A remap must preserve the order
/// of the nodes it keeps, so every remapped input stays ascending.
fn merge_linear(mut cursors: Vec<Cursor<'_>>) -> Sequence {
    let mut merged = Sequence::with_capacity(cursors.iter().map(Cursor::len).sum());
    let mut heads: Vec<Option<MergeKey>> = cursors.iter_mut().map(Cursor::next_key).collect();
    loop {
        let mut best: Option<(usize, MergeKey)> = None;
        let mut bound: Option<MergeKey> = None;
        for (i, head) in heads.iter().enumerate() {
            let Some(key) = *head else { continue };
            match best {
                Some((_, b)) if b < key => {
                    if bound.is_none_or(|runner_up| key < runner_up) {
                        bound = Some(key);
                    }
                }
                _ => {
                    bound = best.map(|(_, b)| b);
                    best = Some((i, key));
                }
            }
        }
        let Some((i, mut key)) = best else { break };
        let cursor = &mut cursors[i];
        heads[i] = loop {
            merged.push(key);
            match cursor.next_key() {
                Some(next) if bound.is_none_or(|runner_up| next < runner_up) => key = next,
                next => break next,
            }
        };
    }
    merged
}

/// Heap-merges one shard (a contiguous group of sources, many short
/// runs) into a sorted sequence.
fn merge_shard(group: &[RunSource<'_>], dense_base: u32) -> Sequence {
    let capacity = group.iter().map(|s| s.entries.len()).sum();
    let key = |entry: &SampleEntry, node: u32| MergeKey {
        value: entry.value,
        node,
        rank: entry.rank,
    };
    let mut heap: BinaryHeap<Reverse<(MergeKey, usize)>> = (group.iter().zip(dense_base..))
        .filter_map(|(source, node)| source.entries.first().map(|e| Reverse((key(e, node), 0))))
        .collect();
    let mut merged = Sequence::with_capacity(capacity);
    while let Some(Reverse((head, pos))) = heap.pop() {
        merged.push(head);
        let next = group
            .get((head.node - dense_base) as usize)
            .and_then(|source| source.entries.get(pos + 1));
        if let Some(e) = next {
            heap.push(Reverse((key(e, head.node), pos + 1)));
        }
    }
    merged
}

/// Below this many merged entries the pool fan-out costs more than the
/// merge itself (dispatch is microseconds; so is the whole merge) —
/// delta segments stay on the calling thread. The sequential path
/// assigns the same dense indices and the merge key is a total order,
/// so the cutoff never changes the produced arrays, only who builds
/// them.
const MERGE_CUTOFF: CutoffPolicy = CutoffPolicy::min_work(1 << 15);

/// Sentinel rank of a node an accumulation pass has not met yet (real
/// ranks are non-negative).
const UNSEEN: i64 = -1;

/// The value-sorted prefix/suffix structure-of-arrays at the heart of
/// every index variant: five integer aggregates plus the merged values,
/// answering `(ΣA, ΣB)` over its sources with two `partition_point`s and
/// five lookups.
#[derive(Debug, Clone)]
pub(crate) struct MergedArrays {
    /// The merged entries (`S`): values sorted ascending, with each
    /// entry's dense node and rank kept so a rewrite can re-merge them
    /// linearly.
    sequence: Sequence,
    /// `cum_pred_rank[c] = R_pred(c)`: Σ over nodes of the rank of their
    /// last entry among the first `c` merged entries.
    cum_pred_rank: Vec<i64>,
    /// `cum_first[c] = C_pred(c)`: nodes with ≥ 1 entry among the first `c`.
    cum_first: Vec<i64>,
    /// `suf_succ_rank[c] = R_succ(c)`: Σ over nodes of the rank of their
    /// first entry at or after position `c`.
    suf_succ_rank: Vec<i64>,
    /// `suf_last[c] = C_succ(c)`: nodes with ≥ 1 entry at or after `c`.
    suf_last: Vec<i64>,
    /// `suf_pop[c] = N_succ(c)`: Σ `n_i` over nodes with ≥ 1 entry at or
    /// after `c`.
    suf_pop: Vec<i64>,
    /// Σ `n_i` over all sources (entry-less sources included).
    total_population: i64,
}

impl MergedArrays {
    /// Builds the arrays over `sources` (dense node `i` = `sources[i]`):
    /// contiguous source groups are heap-merged in parallel over the
    /// shared [`Runtime`] pool once the input is large enough to amortize
    /// the fan-out, the shard sequences merged linearly, and the result
    /// accumulated — `O(S log k)` total work.
    ///
    /// Dense node indices come from each source's global position (the
    /// chunk's input offset), so any chunking — including the sequential
    /// single chunk — produces identical arrays.
    ///
    /// # Panics
    ///
    /// Only to propagate a shard worker's panic, re-raised through the
    /// runtime's single panic path ([`Runtime::map_chunked`]); the merge
    /// itself does not panic.
    pub fn build(sources: &[RunSource<'_>]) -> MergedArrays {
        let total_entries: usize = sources.iter().map(|s| s.entries.len()).sum();
        let mut shards =
            Runtime::global().map_chunked(sources, total_entries, MERGE_CUTOFF, |chunk| {
                merge_shard(chunk.items, chunk.offset as u32)
            });
        let merged = match shards.len() {
            1 => shards.pop().unwrap_or_default(),
            _ => merge_linear(shards.iter().map(|s| Cursor::new(s, None)).collect()),
        };
        let populations: Vec<i64> = sources.iter().map(|s| s.population).collect();
        accumulate(merged, &populations)
    }

    /// Re-merges arrays into new ones in one linear merge: each of
    /// `parts` with its dense node `d` renamed `remap[d]` (nodes remapped
    /// to `None` dropped; the remap must preserve the order of the nodes
    /// it keeps), plus the ascending `fresh` keys, over new dense nodes
    /// with `populations`.
    pub fn rewrite(
        parts: &[(MergedArrays, Vec<Option<u32>>)],
        fresh: &Sequence,
        populations: &[i64],
    ) -> MergedArrays {
        let mut cursors: Vec<Cursor<'_>> = parts
            .iter()
            .map(|(arrays, remap)| Cursor::new(&arrays.sequence, Some(remap)))
            .collect();
        cursors.push(Cursor::new(fresh, None));
        accumulate(merge_linear(cursors), populations)
    }

    /// The exact integer aggregates `(ΣA, ΣB)` over every source, for
    /// one query: two `partition_point` searches
    /// ([`engine::boundary_ranks`]), five lookups.
    pub fn rank_terms(&self, query: RangeQuery) -> (i64, i64) {
        let (pos_l, pos_u) = engine::boundary_ranks(&self.sequence.values, query);
        combine_terms(
            self.total_population,
            self.cum_pred_rank[pos_l],
            self.cum_first[pos_l],
            self.suf_succ_rank[pos_u],
            self.suf_last[pos_u],
            self.suf_pop[pos_u],
        )
    }

    /// One `(ΣA, ΣB)` per query, the batch's boundaries resolved in a
    /// single sorted forward sweep ([`engine::resolve_batch_with`]);
    /// returns the per-query aggregates in submission order plus the
    /// sweep's gallop-step meter.
    ///
    /// The five aggregate lookups happen *inside* the sweep, at
    /// monotonically non-decreasing positions — the prefix and suffix
    /// arrays are walked forward instead of probed in submission order,
    /// which is where a large epoch's cache misses live.
    pub fn rank_terms_batch(&self, queries: &[RangeQuery]) -> (Vec<(i64, i64)>, u64) {
        // `(cum_pred_rank, cum_first)` at each lower boundary and
        // `(suf_succ_rank, suf_last, suf_pop)` at each upper one,
        // scattered back to submission slots.
        let mut lower = vec![(0i64, 0i64); queries.len()];
        let mut upper = vec![(0i64, 0i64, 0i64); queries.len()];
        let gallop_steps =
            engine::resolve_batch_with(&self.sequence.values, queries, |slot, is_lower, pos| {
                if is_lower {
                    lower[slot] = (self.cum_pred_rank[pos], self.cum_first[pos]);
                } else {
                    upper[slot] = (
                        self.suf_succ_rank[pos],
                        self.suf_last[pos],
                        self.suf_pop[pos],
                    );
                }
            });
        let terms = lower
            .into_iter()
            .zip(upper)
            .map(|((pred_rank, first), (succ_rank, last, pop))| {
                combine_terms(
                    self.total_population,
                    pred_rank,
                    first,
                    succ_rank,
                    last,
                    pop,
                )
            })
            .collect();
        (terms, gallop_steps)
    }

    /// Number of merged sample entries (`S`).
    pub fn len(&self) -> usize {
        self.sequence.values.len()
    }

    /// Every stored array plus the population total, values as bit
    /// patterns: what bit-for-bit equivalence tests compare.
    #[cfg(test)]
    pub fn bits(&self) -> MergedBits {
        MergedBits {
            values: self.sequence.values.iter().map(|v| v.to_bits()).collect(),
            nodes: self.sequence.nodes.clone(),
            ranks: self.sequence.ranks.clone(),
            aggregates: [
                self.cum_pred_rank.clone(),
                self.cum_first.clone(),
                self.suf_succ_rank.clone(),
                self.suf_last.clone(),
                self.suf_pop.clone(),
            ],
            total_population: self.total_population,
        }
    }
}

/// A bit-exact image of one [`MergedArrays`] (see [`MergedArrays::bits`]).
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct MergedBits {
    values: Vec<u64>,
    nodes: Vec<u32>,
    ranks: Vec<u32>,
    aggregates: [Vec<i64>; 5],
    total_population: i64,
}

/// The `(ΣA, ΣB)` combine over the five aggregate values at a query's
/// two boundaries — the one place this arithmetic exists, shared by
/// both resolvers so the sweep can never change it.
fn combine_terms(
    total_population: i64,
    pred_rank: i64,
    first: i64,
    succ_rank: i64,
    last: i64,
    pop: i64,
) -> (i64, i64) {
    let sum_a = succ_rank - pred_rank + first + (total_population - pop);
    let sum_b = first + last;
    (sum_a, sum_b)
}

/// Derives the five prefix/suffix aggregates of a merged `sequence` —
/// node `i` claiming population `populations[i]` — and wraps them with
/// the sequence into [`MergedArrays`]. The one place the aggregates are
/// computed, for from-scratch builds and rewrites alike.
///
/// Each node's entries keep their rank order in the merged sequence, so
/// a node's predecessor under a cut is its last entry before the cut: a
/// forward pass keeps each node's latest rank in a scratch array of
/// length `k`, and a backward pass reuses it for each node's next rank.
fn accumulate(sequence: Sequence, populations: &[i64]) -> MergedArrays {
    let s = sequence.len();
    let entries = || sequence.nodes.iter().zip(&sequence.ranks);
    let mut seen = vec![UNSEEN; populations.len()];

    let mut cum_pred_rank = Vec::with_capacity(s + 1);
    let mut cum_first = Vec::with_capacity(s + 1);
    let (mut pred_rank, mut first) = (0i64, 0i64);
    cum_pred_rank.push(pred_rank);
    cum_first.push(first);
    for (&node, &rank) in entries() {
        let rank = i64::from(rank);
        let prev = std::mem::replace(&mut seen[node as usize], rank);
        pred_rank += rank - prev.max(0);
        first += i64::from(prev == UNSEEN);
        cum_pred_rank.push(pred_rank);
        cum_first.push(first);
    }

    seen.fill(UNSEEN);
    let mut suf_succ_rank = vec![0i64; s + 1];
    let mut suf_last = vec![0i64; s + 1];
    let mut suf_pop = vec![0i64; s + 1];
    let (mut succ_rank, mut last, mut pop) = (0i64, 0i64, 0i64);
    let slots = suf_succ_rank
        .iter_mut()
        .zip(&mut suf_last)
        .zip(&mut suf_pop);
    for (((succ_slot, last_slot), pop_slot), (&node, &rank)) in slots.zip(entries()).rev() {
        let rank = i64::from(rank);
        let next = std::mem::replace(&mut seen[node as usize], rank);
        succ_rank += rank - next.max(0);
        if next == UNSEEN {
            last += 1;
            pop += populations[node as usize];
        }
        *succ_slot = succ_rank;
        *last_slot = last;
        *pop_slot = pop;
    }

    MergedArrays {
        sequence,
        cum_pred_rank,
        cum_first,
        suf_succ_rank,
        suf_last,
        suf_pop,
        total_population: populations.iter().sum(),
    }
}
