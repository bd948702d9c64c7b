//! The segmented (LSM-style) rank index: immutable sorted segments over
//! disjoint node subsets, maintained incrementally from collection
//! deltas instead of rebuilt per epoch.

use prc_net::base_station::BaseStation;
use prc_net::message::NodeId;

use super::compaction::{CompactionPolicy, CompactionStep, SegmentStats};
use super::finish_rank_terms;
use super::segment::{Segment, SegmentMember};
use crate::estimator::{BatchEstimate, DeltaOutcome, QueryIndex};
use crate::query::RangeQuery;

/// An incrementally-maintained merged prefix-rank index.
///
/// Invariant: every data-bearing node of the station the index was last
/// synchronized with appears as a *live* member of exactly one segment.
/// `(ΣA, ΣB)` are integer sums over nodes, so a query fans the same two
/// `partition_point`s across every segment and adds the per-segment
/// aggregates — bit-identical to the monolithic [`super::RankIndex`] and
/// to the per-node scan, at `O(m log S)` per query for `m` live
/// segments.
///
/// On a collection round, [`SegmentedRankIndex::absorb_delta`] takes the
/// round's changed-node set. Nodes that only topped up are absorbed by
/// rewriting the segments that hold them into one, in a single linear
/// merge — `O(S_touched + Δ log Δ)`; other changed nodes are tombstoned
/// and appended as one new segment — `O(Δ log Δ)`. Neither pays an
/// `O(S log k)` rebuild. The deterministic size-tiered
/// [`CompactionPolicy`] then bounds the live segment count to
/// `O(log S)`.
///
/// The sampling probability enters only at the final
/// [`finish_rank_terms`] combine, never inside a segment, so entries
/// merged before a top-up remain valid after it; `absorb_delta` simply
/// refreshes the stored probability.
#[derive(Debug, Clone)]
pub struct SegmentedRankIndex {
    /// The station's current uniform sampling probability (refreshed on
    /// every absorb).
    probability: f64,
    /// Oldest-first immutable segments over disjoint live node sets.
    segments: Vec<Segment>,
    policy: CompactionPolicy,
    /// Deltas absorbed since the initial build.
    delta_appends: u64,
    /// Compaction steps applied since the initial build.
    compactions: u64,
}

impl SegmentedRankIndex {
    /// Builds a single-segment index over the station's current samples;
    /// `None` when no uniform positive sampling probability exists
    /// (same contract as [`super::RankIndex::build`]).
    pub fn build(station: &BaseStation) -> Option<SegmentedRankIndex> {
        let probability = station.uniform_probability()?;
        let members = members_of(station, station.data_bearing_samples().map(|s| s.node_id));
        Some(SegmentedRankIndex {
            probability,
            segments: vec![Segment::build(members)],
            policy: CompactionPolicy::default(),
            delta_appends: 0,
            compactions: 0,
        })
    }

    /// Absorbs one collection round's delta, then compacts to the
    /// policy's fixpoint.
    ///
    /// A changed node that is a live member with an unchanged population
    /// whose current entries extend its snapshot has only *topped up*.
    /// The segments holding such nodes are rewritten into one segment in
    /// one linear merge that keeps their entries and merges in the
    /// sorted fresh ones — `O(S_touched + Δ log Δ)` for the `S_touched`
    /// entries of those segments. Every other changed node is
    /// *replaced*: tombstoned where it lives, its current sample appended
    /// as one fresh segment — `O(Δ log Δ)` in its entries.
    ///
    /// Returns `None` when the station no longer has a uniform positive
    /// sampling probability — the index is invalid and the caller must
    /// discard it.
    pub fn absorb_delta(
        &mut self,
        station: &BaseStation,
        changed: &[NodeId],
    ) -> Option<DeltaOutcome> {
        let probability = station.uniform_probability()?;
        self.probability = probability;
        if changed.is_empty() {
            return Some(DeltaOutcome::default());
        }

        let mut touched = vec![false; self.segments.len()];
        let mut top_ups = Vec::new();
        let mut replaced = Vec::new();
        for &node in changed {
            let top_up = station.node_sample(node).and_then(|sample| {
                let (i, holder) =
                    (self.segments.iter().enumerate()).find(|(_, s)| s.holds(node))?;
                let population = sample.population_size as i64;
                Some((i, holder.top_up(node, population, sample.entries())?))
            });
            match top_up {
                Some((segment, top_up)) => {
                    touched[segment] = true;
                    top_ups.push(top_up);
                }
                None => replaced.push(node),
            }
        }

        let mut tombstoned_entries = 0usize;
        for segment in &mut self.segments {
            for &node in &replaced {
                tombstoned_entries += segment.tombstone(node);
            }
        }

        let mut rewritten_entries = 0usize;
        if let Some(first) = touched.iter().position(|&t| t) {
            top_ups.sort_unstable_by_key(|t| t.node_id);
            let mut rewrite = Vec::new();
            for (segment, touched) in std::mem::take(&mut self.segments).into_iter().zip(touched) {
                if touched {
                    rewrite.push(segment);
                } else {
                    self.segments.push(segment);
                }
            }
            let merged = Segment::rewrite(rewrite, &top_ups);
            rewritten_entries = merged.live_entries();
            self.segments.insert(first, merged);
        }

        let members = members_of(
            station,
            replaced.into_iter().filter(|&n| {
                station
                    .node_sample(n)
                    .is_some_and(|s| s.population_size > 0)
            }),
        );
        let appended_entries: usize = members.iter().map(|m| m.entries.len()).sum();
        if !members.is_empty() {
            self.segments.push(Segment::build(members));
        }
        self.delta_appends += 1;

        let compactions = self.compact();
        Some(DeltaOutcome {
            appended_entries,
            tombstoned_entries,
            rewritten_entries,
            compactions,
        })
    }

    /// Applies compaction steps until the policy reaches its fixpoint;
    /// returns the number of steps applied. Rewrites and merges go
    /// through the same linear [`Segment::rewrite`] as top-ups.
    fn compact(&mut self) -> u64 {
        let mut applied = 0u64;
        loop {
            let stats: Vec<SegmentStats> = self
                .segments
                .iter()
                .map(|s| SegmentStats {
                    live: s.live_entries(),
                    dead: s.dead_entries(),
                    live_members: s.live_members(),
                })
                .collect();
            let Some(step) = self.policy.plan(&stats) else {
                break;
            };
            match step {
                CompactionStep::Drop(i) => {
                    self.segments.remove(i);
                }
                CompactionStep::Rewrite(i) => {
                    let old = self.segments.remove(i);
                    let rewritten = Segment::rewrite(vec![old], &[]);
                    self.segments.insert(i, rewritten);
                }
                CompactionStep::MergeTail(count) => {
                    let tail_start = self.segments.len() - count;
                    let tail: Vec<Segment> = self.segments.drain(tail_start..).collect();
                    let merged = Segment::rewrite(tail, &[]);
                    self.segments.push(merged);
                }
            }
            applied += 1;
        }
        self.compactions += applied;
        applied
    }

    /// Answers one range query: the two binary searches fan across every
    /// segment and the exact integer aggregates are summed once.
    pub fn estimate(&self, query: RangeQuery) -> f64 {
        let (sum_a, sum_b) = self.rank_terms(query);
        finish_rank_terms(sum_a, sum_b, self.probability)
    }

    /// The exact integer aggregates `(ΣA, ΣB)` — must match
    /// [`super::scan_rank_terms`] and the monolithic index exactly.
    pub fn rank_terms(&self, query: RangeQuery) -> (i64, i64) {
        let mut sum_a = 0i64;
        let mut sum_b = 0i64;
        for segment in &self.segments {
            let (a, b) = segment.rank_terms(query);
            sum_a += a;
            sum_b += b;
        }
        (sum_a, sum_b)
    }

    /// Answers a whole batch through the engine's sorted-boundary
    /// sweep, one forward pass per segment: same bits as calling
    /// [`SegmentedRankIndex::estimate`] per query (integer addition is
    /// grouping-independent, and each sweep resolves the exact
    /// `partition_point` positions). [`QueryIndex::estimate_batch`]
    /// calls it only where the sweep wins.
    pub fn estimate_sweep(&self, queries: &[RangeQuery]) -> BatchEstimate {
        let mut terms = vec![(0i64, 0i64); queries.len()];
        let mut gallop_steps = 0u64;
        for segment in &self.segments {
            let (segment_terms, steps) = segment.rank_terms_batch(queries);
            gallop_steps += steps;
            for (total, part) in terms.iter_mut().zip(segment_terms) {
                total.0 += part.0;
                total.1 += part.1;
            }
        }
        BatchEstimate {
            estimates: terms
                .into_iter()
                .map(|(sum_a, sum_b)| finish_rank_terms(sum_a, sum_b, self.probability))
                .collect(),
            gallop_steps,
        }
    }

    /// Live merged entries across all segments (`S`).
    pub fn merged_entries(&self) -> usize {
        self.segments.iter().map(Segment::live_entries).sum()
    }

    /// Tombstoned entries still paid for per query (shrinks under
    /// compaction).
    pub fn dead_entries(&self) -> usize {
        self.segments.iter().map(Segment::dead_entries).sum()
    }

    /// The uniform sampling probability as of the last build or absorb.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Live segment count (`m` in the `O(m log S)` query bound).
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Deltas absorbed since the initial build.
    pub fn delta_appends(&self) -> u64 {
        self.delta_appends
    }

    /// Compaction steps applied since the initial build.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }
}

/// Snapshots the given nodes' current samples as fresh segment members.
fn members_of(
    station: &BaseStation,
    nodes: impl IntoIterator<Item = NodeId>,
) -> Vec<SegmentMember> {
    nodes
        .into_iter()
        .filter_map(|node_id| station.node_sample(node_id))
        .map(|s| SegmentMember {
            node_id: s.node_id,
            population: s.population_size as i64,
            entries: s.entries().to_vec(),
            dead: false,
        })
        .collect()
}

impl QueryIndex for SegmentedRankIndex {
    fn estimate(&self, query: RangeQuery) -> f64 {
        SegmentedRankIndex::estimate(self, query)
    }

    fn estimate_sweep(&self, queries: &[RangeQuery]) -> BatchEstimate {
        SegmentedRankIndex::estimate_sweep(self, queries)
    }

    fn merged_entries(&self) -> usize {
        SegmentedRankIndex::merged_entries(self)
    }

    fn probability(&self) -> f64 {
        SegmentedRankIndex::probability(self)
    }

    fn segments(&self) -> usize {
        SegmentedRankIndex::segments(self)
    }

    fn absorb_delta(&mut self, station: &BaseStation, changed: &[NodeId]) -> Option<DeltaOutcome> {
        SegmentedRankIndex::absorb_delta(self, station, changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::index::{scan_rank_terms, RankIndex};
    use prc_net::failure::FailurePlan;
    use prc_net::message::{SampleEntry, SampleMessage};
    use prc_net::network::FlatNetwork;

    fn q(l: f64, u: f64) -> RangeQuery {
        RangeQuery::new(l, u).unwrap()
    }

    fn ingest(station: &mut BaseStation, node: u32, n: usize, p: f64, pairs: &[(f64, u32)]) {
        station.ingest(SampleMessage {
            node_id: NodeId(node),
            population_size: n,
            probability: p,
            entries: pairs
                .iter()
                .map(|&(value, rank)| SampleEntry { value, rank })
                .collect(),
        });
    }

    /// Asserts the segmented index agrees bit-for-bit with the scan and
    /// with a freshly built monolithic index on a spread of queries.
    fn assert_synchronized(index: &SegmentedRankIndex, station: &BaseStation) {
        let fresh = RankIndex::build(station).expect("reference index should build");
        assert_eq!(index.merged_entries(), fresh.merged_entries());
        for (l, u) in [
            (-1.0e9, 1.0e9),
            (-5.0, 3.0),
            (0.0, 10.0),
            (2.5, 2.5),
            (7.0, 40.0),
            (100.0, 200.0),
            (-20.0, -10.0),
        ] {
            assert_eq!(
                index.rank_terms(q(l, u)),
                scan_rank_terms(station, q(l, u)),
                "scan mismatch on ({l}, {u})"
            );
            assert_eq!(
                index.estimate(q(l, u)).to_bits(),
                fresh.estimate(q(l, u)).to_bits(),
                "monolithic mismatch on ({l}, {u})"
            );
        }
    }

    #[test]
    fn build_matches_monolithic_bit_for_bit() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 10, 0.5, &[(2.0, 2), (5.0, 5), (9.0, 9)]);
        ingest(&mut station, 1, 8, 0.5, &[(1.0, 1), (5.0, 3), (8.0, 7)]);
        ingest(&mut station, 2, 6, 0.5, &[]);
        let index = SegmentedRankIndex::build(&station).unwrap();
        assert_eq!(index.segments(), 1);
        assert_synchronized(&index, &station);
    }

    #[test]
    fn absorb_tracks_updated_and_new_nodes() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 10, 0.5, &[(2.0, 2), (9.0, 9)]);
        ingest(&mut station, 1, 8, 0.5, &[(1.0, 1), (8.0, 7)]);
        let mut index = SegmentedRankIndex::build(&station).unwrap();
        let rev = station.revision();

        // Node 1 grows (entries extend), node 2 appears.
        ingest(&mut station, 1, 9, 0.5, &[(4.0, 4)]);
        ingest(&mut station, 2, 5, 0.5, &[(3.0, 2)]);
        let changed = station.changed_since(rev);
        assert_eq!(changed, vec![NodeId(1), NodeId(2)]);

        let outcome = index.absorb_delta(&station, &changed).unwrap();
        assert_eq!(outcome.tombstoned_entries, 2, "node 1's old snapshot");
        assert_eq!(outcome.appended_entries, 4, "node 1 fresh (3) + node 2 (1)");
        assert_eq!(index.delta_appends(), 1);
        assert_synchronized(&index, &station);
    }

    #[test]
    fn empty_delta_is_a_cheap_no_op() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 4, 0.25, &[(1.0, 1)]);
        let mut index = SegmentedRankIndex::build(&station).unwrap();
        let outcome = index.absorb_delta(&station, &[]).unwrap();
        assert_eq!(outcome, DeltaOutcome::default());
        assert_eq!(index.delta_appends(), 0);
        assert_synchronized(&index, &station);
    }

    #[test]
    fn top_up_refreshes_probability_across_old_segments() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 10, 0.25, &[(2.0, 2)]);
        ingest(&mut station, 1, 10, 0.25, &[(6.0, 3)]);
        let mut index = SegmentedRankIndex::build(&station).unwrap();
        let rev = station.revision();

        // A global top-up raises every node's probability; old segments
        // stay valid because p only enters at the final combine.
        ingest(&mut station, 0, 10, 0.5, &[(4.0, 4)]);
        ingest(&mut station, 1, 10, 0.5, &[(8.0, 7)]);
        let changed = station.changed_since(rev);
        index.absorb_delta(&station, &changed).unwrap();
        assert_eq!(index.probability(), 0.5);
        assert_synchronized(&index, &station);
    }

    #[test]
    fn heterogeneous_probability_invalidates() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 4, 0.5, &[(1.0, 1)]);
        ingest(&mut station, 1, 4, 0.5, &[(2.0, 2)]);
        let mut index = SegmentedRankIndex::build(&station).unwrap();
        let rev = station.revision();
        ingest(&mut station, 1, 4, 0.75, &[(3.0, 3)]);
        assert!(index
            .absorb_delta(&station, &station.changed_since(rev))
            .is_none());
    }

    #[test]
    fn repeated_deltas_stay_synchronized_and_compact() {
        let partitions: Vec<Vec<f64>> = (0..12)
            .map(|i| (0..200).map(|j| ((i * 200 + j) / 2) as f64).collect())
            .collect();
        let mut net = FlatNetwork::from_partitions(partitions, 77);
        // Nodes 10 and 11 are down for the first epoch: they never report,
        // so the station stays uniform at the target without them.
        let mut plan = FailurePlan::none();
        plan.kill_node(NodeId(10));
        plan.kill_node(NodeId(11));
        net.set_failure_plan(plan);
        net.collect_samples(0.3);
        let mut index = SegmentedRankIndex::build(net.station()).unwrap();
        let mut rev = net.station().revision();

        // Revival catch-up at the same target: exactly the two previously
        // dead nodes change.
        net.set_failure_plan(FailurePlan::none());
        net.collect_samples(0.3);
        let delta = net.station().changed_since(rev);
        assert_eq!(delta, vec![NodeId(10), NodeId(11)]);
        index.absorb_delta(net.station(), &delta).unwrap();
        rev = net.station().revision();
        assert_synchronized(&index, net.station());

        // Growth: rounds of nodes joining and catching up to the target.
        for round in 0..5u64 {
            for j in 0..2u64 {
                let base = 3_000 + (round * 2 + j) * 200;
                let data = (0..200).map(|v| ((base + v) / 2) as f64).collect();
                net.add_node(data, 1_000 + round * 2 + j);
            }
            net.collect_samples(0.3);
            let delta = net.station().changed_since(rev);
            assert_eq!(delta.len(), 2, "only the joiners change");
            index.absorb_delta(net.station(), &delta).unwrap();
            rev = net.station().revision();
            assert_synchronized(&index, net.station());
        }
        assert!(index.delta_appends() >= 6);
        assert!(index.compactions() > 0, "size-tiered merges must fire");
        assert!(
            index.segments() <= 5,
            "compaction must bound segments, got {}",
            index.segments()
        );

        // A global top-up changes every node, and every node only tops
        // up: the old segments are rewritten in place, nothing tombstoned.
        net.collect_samples(0.5);
        let delta = net.station().changed_since(rev);
        assert_eq!(delta.len(), net.station().node_count());
        let outcome = index.absorb_delta(net.station(), &delta).unwrap();
        assert_eq!(outcome.tombstoned_entries, 0);
        assert!(outcome.rewritten_entries > 0);
        assert_eq!(index.probability(), 0.5);
        assert_eq!(index.dead_entries(), 0, "fully-dead segments are dropped");
        assert_synchronized(&index, net.station());
    }

    /// Asserts every segment's arrays equal a fresh [`Segment::build`]
    /// over the same members bit for bit, and that the live members are
    /// exactly the station's data-bearing nodes, each once, holding the
    /// station's current sample.
    fn assert_segments_match_fresh_builds(index: &SegmentedRankIndex, station: &BaseStation) {
        let mut live = Vec::new();
        for (i, segment) in index.segments.iter().enumerate() {
            let (bits, fresh) = segment.bits_and_fresh_build_bits();
            assert_eq!(bits, fresh, "segment {i} differs from a fresh build");
            live.extend(segment.live_member_images());
        }
        live.sort_by_key(|(node, _, _)| *node);
        let expected: Vec<_> = station
            .data_bearing_samples()
            .map(|s| {
                let entries = s.entries().iter().map(|e| (e.value.to_bits(), e.rank));
                (s.node_id, s.population_size as i64, entries.collect())
            })
            .collect();
        assert_eq!(live, expected);
    }

    #[test]
    fn top_up_across_segments_with_a_replaced_node_leaves_one_segment() {
        let mut station = BaseStation::new();
        for node in 0..4 {
            let base = f64::from(node) * 10.0;
            let pairs: Vec<(f64, u32)> = (1..=8).map(|r| (base + f64::from(r), r)).collect();
            ingest(&mut station, node, 20, 0.5, &pairs);
        }
        let mut index = SegmentedRankIndex::build(&station).unwrap();
        let rev = station.revision();
        // Two small joiners land in a second segment the 32-entry first
        // one is too large to absorb.
        ingest(&mut station, 4, 6, 0.5, &[(4.5, 2)]);
        ingest(&mut station, 5, 6, 0.5, &[]);
        index
            .absorb_delta(&station, &station.changed_since(rev))
            .unwrap();
        assert_eq!(index.segments(), 2);
        let rev = station.revision();

        // Nodes 0 and 4 top up (one per segment); node 1 claims a new
        // population, so it is replaced.
        ingest(&mut station, 0, 20, 0.5, &[(9.5, 10), (12.0, 14)]);
        ingest(&mut station, 4, 6, 0.5, &[(-0.0, 1), (7.0, 5)]);
        ingest(&mut station, 1, 21, 0.5, &[(19.0, 9)]);
        let changed = station.changed_since(rev);
        assert_eq!(changed, vec![NodeId(0), NodeId(1), NodeId(4)]);
        let outcome = index.absorb_delta(&station, &changed).unwrap();

        let holders: Vec<&Segment> = (index.segments.iter())
            .filter(|s| s.holds(NodeId(0)) || s.holds(NodeId(4)))
            .collect();
        assert_eq!(holders.len(), 1, "the top-up is one segment");
        assert!(holders[0].holds(NodeId(0)) && holders[0].holds(NodeId(4)));
        assert!(!holders[0].holds(NodeId(1)));
        assert_eq!(outcome.tombstoned_entries, 8, "node 1's old snapshot");
        assert_eq!(outcome.appended_entries, 9, "node 1's current sample");
        assert_eq!(outcome.rewritten_entries, 24 + 2 + 3, "survivors + fresh");
        assert_eq!(index.segments(), 2);
        assert_eq!(index.dead_entries(), 0);
        assert_synchronized(&index, &station);
        assert_segments_match_fresh_builds(&index, &station);
    }

    /// splitmix64: the property test's deterministic input expander.
    struct Words(u64);

    impl Words {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Signed zeros, a subnormal, and heavy duplicates.
    const POOL: [f64; 8] = [-0.0, 0.0, 1.0, 1.0, 1.0, -3.5, 5e-324, 7.0];
    const PROBABILITIES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

    /// One generated node: fixed sorted data, the population it claims,
    /// and whether it has reported yet.
    struct GenNode {
        data: Vec<f64>,
        population: usize,
        joined: bool,
    }

    /// Ingests a sample of `node`'s data at `p`: each rank is drawn with
    /// probability one half, so some reports carry no entries.
    fn report(station: &mut BaseStation, words: &mut Words, id: u32, node: &GenNode, p: f64) {
        let entries = (1..=node.data.len() as u32)
            .filter(|_| words.below(2) == 0)
            .map(|rank| SampleEntry {
                value: node.data[rank as usize - 1],
                rank,
            })
            .collect();
        station.ingest(SampleMessage {
            node_id: NodeId(id),
            population_size: node.population,
            probability: p,
            entries,
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Random rounds of top-ups, population changes (replacements,
        /// including drops to and returns from `n = 0`), joins, and
        /// probability raises: after every absorb, each segment equals a
        /// fresh build over its members bit for bit and the index agrees
        /// with the scan.
        #[test]
        fn absorbed_segments_equal_fresh_builds(
            seed in 0u64..u64::MAX,
            rounds in 1usize..10,
        ) {
            let mut words = Words(seed);
            let mut nodes: Vec<GenNode> = (0..8)
                .map(|_| {
                    let len = words.below(7) as usize;
                    let mut data: Vec<f64> =
                        (0..len).map(|_| POOL[words.below(8) as usize]).collect();
                    data.sort_by(f64::total_cmp);
                    GenNode { population: data.len(), data, joined: false }
                })
                .collect();
            // Node 0 always joins with a positive population, so the
            // initial station has a uniform probability to build at.
            nodes[0].population = nodes[0].data.len() + 1;
            let mut station = BaseStation::new();
            let mut level = 0usize;
            for (id, node) in nodes.iter_mut().enumerate() {
                if id == 0 || words.below(2) == 0 {
                    node.joined = true;
                    report(&mut station, &mut words, id as u32, node, PROBABILITIES[level]);
                }
            }
            let mut index = SegmentedRankIndex::build(&station).unwrap();
            assert_segments_match_fresh_builds(&index, &station);

            for _ in 0..rounds {
                let rev = station.revision();
                let raise = level + 1 < PROBABILITIES.len() && words.below(4) == 0;
                if raise {
                    level += 1;
                }
                let p = PROBABILITIES[level];
                for (id, node) in nodes.iter_mut().enumerate() {
                    let action = words.below(6);
                    if !node.joined {
                        if action < 2 {
                            node.joined = true;
                            report(&mut station, &mut words, id as u32, node, p);
                        }
                        continue;
                    }
                    match action {
                        // Replace: a new population claim, sometimes 0.
                        0 => {
                            node.population = match words.below(3) {
                                0 => 0,
                                1 => node.data.len() + 2,
                                _ => node.data.len(),
                            };
                            report(&mut station, &mut words, id as u32, node, p);
                        }
                        // Top up (possibly with nothing new).
                        1..=3 => report(&mut station, &mut words, id as u32, node, p),
                        // Sit the round out, unless a raise needs every
                        // data-bearing node at the new probability.
                        _ if raise && node.population > 0 => {
                            report(&mut station, &mut words, id as u32, node, p);
                        }
                        _ => {}
                    }
                }
                let changed = station.changed_since(rev);
                match index.absorb_delta(&station, &changed) {
                    Some(_) => {
                        assert_segments_match_fresh_builds(&index, &station);
                        assert_synchronized(&index, &station);
                    }
                    // Every data-bearing node left: no probability exists.
                    None => proptest::prop_assert!(station.uniform_probability().is_none()),
                }
                if station.uniform_probability().is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn trait_object_surface_reports_segment_state() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 4, 0.5, &[(1.0, 1)]);
        ingest(&mut station, 1, 4, 0.5, &[(2.0, 2)]);
        let index = SegmentedRankIndex::build(&station).unwrap();
        let mut boxed: Box<dyn QueryIndex> = Box::new(index);
        assert_eq!(boxed.segments(), 1);
        assert_eq!(boxed.merged_entries(), 2);

        let rev = station.revision();
        ingest(&mut station, 2, 4, 0.5, &[(3.0, 3)]);
        let outcome = boxed
            .absorb_delta(&station, &station.changed_since(rev))
            .expect("segmented trait objects absorb deltas");
        assert_eq!(outcome.appended_entries, 1);
        assert_eq!(
            boxed.estimate(q(0.0, 5.0)).to_bits(),
            RankIndex::build(&station)
                .unwrap()
                .estimate(q(0.0, 5.0))
                .to_bits()
        );
    }
}
