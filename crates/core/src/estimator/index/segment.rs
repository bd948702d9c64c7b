//! One immutable sorted segment of the segmented index: merged arrays
//! over a disjoint subset of nodes, plus per-node snapshots enabling
//! exact tombstone subtraction, and the linear rewrite that merges
//! segments and absorbs top-ups.

use prc_net::message::{NodeId, SampleEntry};

#[cfg(test)]
use super::merge::MergedBits;
use super::merge::{MergeKey, MergedArrays, RunSource, Sequence};
use super::node_rank_terms;
use crate::query::RangeQuery;

/// One node's sample state as frozen into a segment at build time: the
/// authoritative data the segment's arrays were accumulated from.
///
/// Snapshots serve two purposes. When the node is *tombstoned* (its live
/// sample moved to a newer segment), its exact old contribution
/// `(Aᵢ, Bᵢ)` is recomputed per query from the snapshot and subtracted
/// from the segment's aggregate — integer arithmetic, so the subtraction
/// is exact, not approximate. And when the node tops up, the snapshot
/// tells which of its current entries are new.
#[derive(Debug, Clone)]
pub(crate) struct SegmentMember {
    pub node_id: NodeId,
    /// Claimed population `n_i` at snapshot time.
    pub population: i64,
    /// Rank-sorted (hence value-sorted) entries at snapshot time.
    pub entries: Vec<SampleEntry>,
    /// Tombstoned: a newer segment now carries this node's live sample.
    pub dead: bool,
}

/// A live member's top-up: the node's current entries, which keep every
/// entry of its snapshot, and the fresh ones the snapshot lacks.
#[derive(Debug)]
pub(crate) struct TopUp<'a> {
    pub node_id: NodeId,
    pub entries: &'a [SampleEntry],
    pub fresh: Vec<SampleEntry>,
}

/// An immutable sorted segment: the merged prefix-rank arrays over its
/// member nodes, answering `(ΣA, ΣB)` restricted to *live* members.
///
/// The segmented index maintains the invariant that every live node of
/// the station appears as a live member of exactly one segment, so
/// summing `rank_terms` across segments reproduces the full-station
/// aggregates bit-for-bit.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// Members in node-id order, which is also their dense merge order.
    /// That order never affects the aggregates (integer sums are
    /// grouping-independent), but a canonical one keeps rebuilds
    /// deterministic and lets a rewrite remap dense indices without
    /// reordering any input.
    members: Vec<SegmentMember>,
    arrays: MergedArrays,
    /// Indices (into `members`) of tombstoned members, so the per-query
    /// subtraction loop touches only the dead — a freshly built or
    /// compacted segment answers in pure `O(log S)` with no member walk.
    dead_members: Vec<usize>,
    /// Entries belonging to tombstoned members.
    dead_entries: usize,
}

impl Segment {
    /// Builds a segment over `members` (tombstones cleared), sorting
    /// them into canonical node-id order.
    pub fn build(mut members: Vec<SegmentMember>) -> Segment {
        members.sort_by_key(|m| m.node_id);
        for m in &mut members {
            m.dead = false;
        }
        let sources: Vec<RunSource<'_>> = members
            .iter()
            .map(|m| RunSource {
                entries: &m.entries,
                population: m.population,
            })
            .collect();
        let arrays = MergedArrays::build(&sources);
        Segment {
            members,
            arrays,
            dead_members: Vec::new(),
            dead_entries: 0,
        }
    }

    /// The exact `(ΣA, ΣB)` over this segment's live members: the
    /// aggregate over *all* members minus each tombstoned member's exact
    /// snapshot contribution.
    pub fn rank_terms(&self, query: RangeQuery) -> (i64, i64) {
        let (mut sum_a, mut sum_b) = self.arrays.rank_terms(query);
        for m in self
            .dead_members
            .iter()
            .filter_map(|&i| self.members.get(i))
        {
            let (a, b) = node_rank_terms(&m.entries, m.population, query);
            sum_a -= a;
            sum_b -= b;
        }
        (sum_a, sum_b)
    }

    /// One `(ΣA, ΣB)` per query over this segment's live members, the
    /// batch's boundaries resolved in one sorted forward sweep; returns
    /// the aggregates in submission order plus the sweep's gallop-step
    /// meter. Tombstone subtraction stays per query: node snapshots are
    /// tiny next to the merged arrays, so the sweep targets the arrays.
    pub fn rank_terms_batch(&self, queries: &[RangeQuery]) -> (Vec<(i64, i64)>, u64) {
        let (mut terms, gallop_steps) = self.arrays.rank_terms_batch(queries);
        for m in self
            .dead_members
            .iter()
            .filter_map(|&i| self.members.get(i))
        {
            for (term, &query) in terms.iter_mut().zip(queries) {
                let (a, b) = node_rank_terms(&m.entries, m.population, query);
                term.0 -= a;
                term.1 -= b;
            }
        }
        (terms, gallop_steps)
    }

    /// Rewrites `segments` (disjoint member sets) into one segment in
    /// one linear merge. Tombstoned members are dropped. Every other
    /// member keeps its merged entries under its new dense index, and
    /// each member named in `top_ups` takes its current entries there
    /// (see [`Segment::top_up`]); only the fresh ones are sorted and
    /// merged in. `top_ups` must be sorted by node id.
    ///
    /// Work is `O(S_in + Δ log Δ)` for `S_in` input entries and `Δ`
    /// fresh ones. The result equals [`Segment::build`] over the same
    /// members bit for bit: both hold the one ascending order of the
    /// same `(value, node, rank)` keys, with dense indices in node-id
    /// order.
    pub fn rewrite(segments: Vec<Segment>, top_ups: &[TopUp<'_>]) -> Segment {
        // Live members with where they came from: (segment, dense index).
        let mut survivors = Vec::new();
        let mut parts = Vec::with_capacity(segments.len());
        for (s, segment) in segments.into_iter().enumerate() {
            parts.push((segment.arrays, vec![None; segment.members.len()]));
            survivors.extend(
                (segment.members.into_iter().enumerate())
                    .filter(|(_, m)| !m.dead)
                    .map(|(d, m)| (m, s, d)),
            );
        }
        survivors.sort_unstable_by_key(|(m, _, _)| m.node_id);

        let mut fresh = Vec::with_capacity(top_ups.iter().map(|t| t.fresh.len()).sum());
        let mut members = Vec::with_capacity(survivors.len());
        for ((mut member, s, d), dense) in survivors.into_iter().zip(0u32..) {
            parts[s].1[d] = Some(dense);
            if let Ok(i) = top_ups.binary_search_by_key(&member.node_id, |t| t.node_id) {
                let top_up = &top_ups[i];
                fresh.extend(top_up.fresh.iter().map(|e| MergeKey {
                    value: e.value,
                    node: dense,
                    rank: e.rank,
                }));
                member.entries.clear();
                member.entries.extend_from_slice(top_up.entries);
            }
            members.push(member);
        }
        fresh.sort_unstable();
        let fresh = Sequence::from_sorted(&fresh);

        let populations: Vec<i64> = members.iter().map(|m| m.population).collect();
        Segment {
            arrays: MergedArrays::rewrite(&parts, &fresh, &populations),
            members,
            dead_members: Vec::new(),
            dead_entries: 0,
        }
    }

    /// The top-up of live member `node` to `entries` at `population`,
    /// if that is all it is: the population is unchanged and every
    /// snapshot entry is still there with the same rank and value bits.
    /// Such a member's merged entries stay valid, so [`Segment::rewrite`]
    /// can extend it instead of the index tombstoning it.
    pub fn top_up<'a>(
        &self,
        node: NodeId,
        population: i64,
        entries: &'a [SampleEntry],
    ) -> Option<TopUp<'a>> {
        let member = self.live_member(node)?;
        if member.population != population {
            return None;
        }
        Some(TopUp {
            node_id: node,
            entries,
            fresh: fresh_entries(&member.entries, entries)?,
        })
    }

    /// Whether `node` is a live member of this segment.
    pub fn holds(&self, node: NodeId) -> bool {
        self.live_member(node).is_some()
    }

    fn live_member(&self, node: NodeId) -> Option<&SegmentMember> {
        let pos = self
            .members
            .binary_search_by_key(&node, |m| m.node_id)
            .ok()?;
        self.members.get(pos).filter(|m| !m.dead)
    }

    /// Tombstones `node` if it is a live member; returns the number of
    /// entries newly deadened (0 when the node is absent or already
    /// dead).
    pub fn tombstone(&mut self, node: NodeId) -> usize {
        match self.members.binary_search_by_key(&node, |m| m.node_id) {
            Ok(pos) => {
                let member = &mut self.members[pos];
                if member.dead {
                    0
                } else {
                    member.dead = true;
                    self.dead_members.push(pos);
                    self.dead_entries += member.entries.len();
                    member.entries.len()
                }
            }
            Err(_) => 0,
        }
    }

    /// Entries still owned by live members.
    pub fn live_entries(&self) -> usize {
        self.arrays.len() - self.dead_entries
    }

    /// Entries owned by tombstoned members (per-query subtraction work).
    pub fn dead_entries(&self) -> usize {
        self.dead_entries
    }

    /// Members not yet tombstoned. Can exceed zero while
    /// [`Segment::live_entries`] is zero: a member whose sample drew no
    /// entries still contributes its population to the A-term.
    pub fn live_members(&self) -> usize {
        self.members.len() - self.dead_members.len()
    }
}

/// One live member as `(node, population, [(value bits, rank)])`.
#[cfg(test)]
pub(crate) type MemberImage = (NodeId, i64, Vec<(u64, u32)>);

#[cfg(test)]
impl Segment {
    /// A bit image of this segment's arrays, and of the arrays
    /// [`Segment::build`] produces over the same members (tombstoned
    /// ones included: their entries are still in the arrays).
    pub fn bits_and_fresh_build_bits(&self) -> (MergedBits, MergedBits) {
        let fresh = Segment::build(self.members.clone());
        (self.arrays.bits(), fresh.arrays.bits())
    }

    /// The live members' images.
    pub fn live_member_images(&self) -> Vec<MemberImage> {
        self.members
            .iter()
            .filter(|m| !m.dead)
            .map(|m| {
                let entries = m.entries.iter().map(|e| (e.value.to_bits(), e.rank));
                (m.node_id, m.population, entries.collect())
            })
            .collect()
    }
}

/// The entries of rank-sorted `current` missing from rank-sorted
/// `snapshot`, or `None` unless `current` holds every snapshot entry
/// with the same rank and value bits.
fn fresh_entries(snapshot: &[SampleEntry], current: &[SampleEntry]) -> Option<Vec<SampleEntry>> {
    let mut fresh = Vec::with_capacity(current.len().saturating_sub(snapshot.len()));
    let mut old = snapshot.iter().peekable();
    for entry in current {
        match old.peek() {
            Some(o) if o.rank == entry.rank => {
                if o.value.to_bits() != entry.value.to_bits() {
                    return None;
                }
                old.next();
            }
            // A snapshot entry `current` skipped: it is gone.
            Some(o) if o.rank < entry.rank => return None,
            _ => fresh.push(*entry),
        }
    }
    old.peek().is_none().then_some(fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::index::scan_rank_terms;
    use prc_net::base_station::BaseStation;
    use prc_net::message::SampleMessage;

    fn q(l: f64, u: f64) -> RangeQuery {
        RangeQuery::new(l, u).unwrap()
    }

    fn member(node: u32, population: i64, pairs: &[(f64, u32)]) -> SegmentMember {
        SegmentMember {
            node_id: NodeId(node),
            population,
            entries: pairs
                .iter()
                .map(|&(value, rank)| SampleEntry { value, rank })
                .collect(),
            dead: false,
        }
    }

    fn station_of(members: &[SegmentMember], p: f64) -> BaseStation {
        let mut station = BaseStation::new();
        for m in members {
            station.ingest(SampleMessage {
                node_id: m.node_id,
                population_size: m.population as usize,
                probability: p,
                entries: m.entries.clone(),
            });
        }
        station
    }

    #[test]
    fn segment_aggregates_match_the_scan_over_its_members() {
        let members = vec![
            member(0, 10, &[(2.0, 2), (5.0, 5), (9.0, 9)]),
            member(1, 8, &[(1.0, 1), (5.0, 3), (8.0, 7)]),
            member(2, 6, &[]),
        ];
        let station = station_of(&members, 0.5);
        let segment = Segment::build(members);
        for (l, u) in [(3.0, 7.0), (-5.0, 1.0), (5.0, 5.0), (100.0, 200.0)] {
            assert_eq!(
                segment.rank_terms(q(l, u)),
                scan_rank_terms(&station, q(l, u)),
                "({l}, {u})"
            );
        }
    }

    #[test]
    fn tombstone_subtracts_the_exact_old_contribution() {
        let members = vec![
            member(0, 10, &[(2.0, 2), (5.0, 5)]),
            member(1, 8, &[(1.0, 1), (8.0, 7)]),
        ];
        // Reference: a station holding only the surviving member.
        let survivors = station_of(&members[..1], 0.5);
        let mut segment = Segment::build(members);

        assert_eq!(segment.tombstone(NodeId(1)), 2);
        assert_eq!(segment.tombstone(NodeId(1)), 0, "idempotent");
        assert_eq!(segment.tombstone(NodeId(9)), 0, "absent node");
        assert_eq!(segment.live_entries(), 2);
        assert_eq!(segment.dead_entries(), 2);

        for (l, u) in [(0.0, 3.0), (4.0, 9.0), (-2.0, -1.0), (20.0, 30.0)] {
            assert_eq!(
                segment.rank_terms(q(l, u)),
                scan_rank_terms(&survivors, q(l, u)),
                "({l}, {u})"
            );
        }
    }

    #[test]
    fn rewrite_drops_tombstones() {
        let members = vec![member(0, 4, &[(1.0, 1)]), member(1, 4, &[(2.0, 2)])];
        let mut segment = Segment::build(members);
        segment.tombstone(NodeId(0));
        let rewritten = Segment::rewrite(vec![segment], &[]);
        assert_eq!(rewritten.live_members(), 1);
        assert_eq!(rewritten.dead_entries(), 0);
        assert_eq!(rewritten.members[0].node_id, NodeId(1));
    }
}
