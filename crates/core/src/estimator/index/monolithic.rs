//! The monolithic merged prefix-rank index: one segment covering every
//! node, rebuilt from scratch per epoch. The reference accelerator the
//! segmented variant must stay bit-identical to.

use prc_net::base_station::BaseStation;

use super::finish_rank_terms;
use super::merge::{MergedArrays, RunSource};
use crate::estimator::{BatchEstimate, QueryIndex};
use crate::query::RangeQuery;

/// The merged prefix-rank query index: one value-sorted
/// structure-of-arrays over every node's sample entries, answering
/// RankCounting queries in `O(log S)` with results bit-identical to the
/// per-node scan.
///
/// # Examples
///
/// ```
/// use prc_core::estimator::{RangeCountEstimator, RankCounting, RankIndex};
/// use prc_core::query::RangeQuery;
/// use prc_net::network::FlatNetwork;
///
/// # fn main() -> Result<(), prc_core::CoreError> {
/// let partitions: Vec<Vec<f64>> = (0..8)
///     .map(|i| (0..500).map(|j| (i * 500 + j) as f64).collect())
///     .collect();
/// let mut network = FlatNetwork::from_partitions(partitions, 11);
/// network.collect_samples(0.25);
///
/// let index = RankIndex::build(network.station()).expect("uniform station");
/// let query = RangeQuery::new(700.0, 2_900.0)?;
/// // Same bits as the O(k log s) per-node path, at O(log S) cost.
/// let scanned = RankCounting.estimate(network.station(), query);
/// assert_eq!(index.estimate(query).to_bits(), scanned.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RankIndex {
    /// The uniform sampling probability the index was built at.
    probability: f64,
    arrays: MergedArrays,
}

impl RankIndex {
    /// Builds the index over the station's current samples.
    ///
    /// Returns `None` when the station has no uniform positive sampling
    /// probability across its data-bearing nodes (the `1/p` factoring the
    /// prefix-sum decomposition needs does not exist) — callers fall back
    /// to the per-node scan.
    ///
    /// The build shards one sorted run per node, heap-merges shards over
    /// the shared `prc-runtime` pool (one contiguous node group per
    /// chunk), merges the per-worker runs linearly, and accumulates the
    /// prefix and suffix arrays in one forward and one backward pass:
    /// `O(S log k)` total work.
    pub fn build(station: &BaseStation) -> Option<RankIndex> {
        let probability = station.uniform_probability()?;
        let sources: Vec<RunSource<'_>> = station
            .data_bearing_samples()
            .map(|s| RunSource {
                entries: s.entries(),
                population: s.population_size as i64,
            })
            .collect();
        Some(RankIndex {
            probability,
            arrays: MergedArrays::build(&sources),
        })
    }

    /// Answers one range query in `O(log S)`: two `partition_point`
    /// searches over the merged values, five prefix/suffix lookups, one
    /// combine.
    pub fn estimate(&self, query: RangeQuery) -> f64 {
        let (sum_a, sum_b) = self.rank_terms(query);
        finish_rank_terms(sum_a, sum_b, self.probability)
    }

    /// Answers a whole batch through the engine's sorted-boundary sweep:
    /// same bits as calling [`RankIndex::estimate`] per query, resolved
    /// in one forward pass over the merged values.
    /// [`QueryIndex::estimate_batch`] calls it only where the sweep wins.
    pub fn estimate_sweep(&self, queries: &[RangeQuery]) -> BatchEstimate {
        let (terms, gallop_steps) = self.arrays.rank_terms_batch(queries);
        BatchEstimate {
            estimates: terms
                .into_iter()
                .map(|(sum_a, sum_b)| finish_rank_terms(sum_a, sum_b, self.probability))
                .collect(),
            gallop_steps,
        }
    }

    /// The exact integer aggregates `(ΣA, ΣB)` for one query — must match
    /// [`scan_rank_terms`] exactly on the same station.
    pub fn rank_terms(&self, query: RangeQuery) -> (i64, i64) {
        self.arrays.rank_terms(query)
    }

    /// Number of merged sample entries (`S`).
    pub fn merged_entries(&self) -> usize {
        self.arrays.len()
    }

    /// The uniform sampling probability the index was built at.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

impl QueryIndex for RankIndex {
    fn estimate(&self, query: RangeQuery) -> f64 {
        RankIndex::estimate(self, query)
    }

    fn estimate_sweep(&self, queries: &[RangeQuery]) -> BatchEstimate {
        RankIndex::estimate_sweep(self, queries)
    }

    fn merged_entries(&self) -> usize {
        RankIndex::merged_entries(self)
    }

    fn probability(&self) -> f64 {
        RankIndex::probability(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::index::scan_rank_terms;
    use crate::estimator::{RangeCountEstimator, RankCounting};
    use prc_net::message::{NodeId, SampleEntry, SampleMessage};
    use prc_net::network::FlatNetwork;

    fn q(l: f64, u: f64) -> RangeQuery {
        RangeQuery::new(l, u).unwrap()
    }

    /// `(sampled (value, rank) pairs, population size, probability)`.
    type NodeSpec<'a> = (&'a [(f64, u32)], usize, f64);

    fn station(nodes: &[NodeSpec]) -> BaseStation {
        let mut station = BaseStation::new();
        for (i, (entries, n, p)) in nodes.iter().enumerate() {
            station.ingest(SampleMessage {
                node_id: NodeId(i as u32),
                population_size: *n,
                probability: *p,
                entries: entries
                    .iter()
                    .map(|&(value, rank)| SampleEntry { value, rank })
                    .collect(),
            });
        }
        station
    }

    fn assert_identical(station: &BaseStation, queries: &[(f64, f64)]) {
        let index = RankIndex::build(station).expect("index should build");
        for &(l, u) in queries {
            let indexed = index.estimate(q(l, u));
            let scanned = RankCounting.estimate(station, q(l, u));
            assert_eq!(
                indexed.to_bits(),
                scanned.to_bits(),
                "({l}, {u}): indexed {indexed} vs scanned {scanned}"
            );
            let (scan_a, scan_b) = scan_rank_terms(station, q(l, u));
            assert_eq!(index.rank_terms(q(l, u)), (scan_a, scan_b));
        }
    }

    #[test]
    fn matches_scan_on_handcrafted_station() {
        let s = station(&[
            (&[(2.0, 2), (5.0, 5), (9.0, 9)], 10, 0.5),
            (&[(1.0, 1), (5.0, 3), (5.0, 4), (8.0, 7)], 8, 0.5),
            (&[], 6, 0.5), // sampled nothing: always case 4
        ]);
        assert_identical(
            &s,
            &[
                (3.0, 7.0),
                (6.0, 20.0),
                (-5.0, 1.0),
                (-10.0, 30.0),
                (5.0, 5.0),
                (4.9, 5.1),
                (9.0, 9.0),
                (100.0, 200.0),
                (-7.0, -2.0),
            ],
        );
    }

    #[test]
    fn matches_scan_over_collected_networks() {
        for (k, per_node, p, seed) in [
            (1, 300, 0.2, 1u64),
            (7, 100, 0.35, 2),
            (16, 250, 0.6, 3),
            (5, 50, 1.0, 4),
        ] {
            let partitions: Vec<Vec<f64>> = (0..k)
                .map(|i| {
                    (0..per_node)
                        .map(|j| ((i * per_node + j) / 3) as f64) // duplicate-heavy
                        .collect()
                })
                .collect();
            let mut net = FlatNetwork::from_partitions(partitions, seed);
            net.collect_samples(p);
            let n = (k * per_node) as f64 / 3.0;
            assert_identical(
                net.station(),
                &[
                    (0.0, n),
                    (n * 0.25, n * 0.75),
                    (n * 0.5, n * 0.5),
                    (-10.0, -1.0),
                    (n + 5.0, n + 50.0),
                    (0.0, 0.0),
                ],
            );
        }
    }

    #[test]
    fn p_one_index_is_exact() {
        let values: Vec<f64> = vec![1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 8.0, 9.0];
        let mut net = FlatNetwork::from_partitions(vec![values.clone()], 1);
        net.collect_samples(1.0);
        let index = RankIndex::build(net.station()).unwrap();
        for (l, u) in [(2.0, 5.0), (1.0, 9.0), (4.0, 4.5), (10.0, 20.0)] {
            let truth = values.iter().filter(|&&v| v >= l && v <= u).count() as f64;
            assert_eq!(index.estimate(q(l, u)), truth, "({l}, {u})");
        }
    }

    #[test]
    fn heterogeneous_probabilities_decline_to_build() {
        let s = station(&[(&[(1.0, 1)], 4, 0.5), (&[(2.0, 2)], 4, 0.25)]);
        assert!(RankIndex::build(&s).is_none());
        // The scan path still answers (per-node fallback in the estimator).
        assert!(RankCounting.estimate(&s, q(0.0, 3.0)).is_finite());
    }

    #[test]
    fn empty_station_declines_to_build() {
        assert!(RankIndex::build(&BaseStation::new()).is_none());
        let all_empty = station(&[(&[], 0, 0.5)]);
        assert!(RankIndex::build(&all_empty).is_none());
    }

    #[test]
    fn zero_population_nodes_are_ignored() {
        let s = station(&[(&[(1.0, 1), (4.0, 4)], 6, 0.5), (&[], 0, 0.9)]);
        assert_identical(&s, &[(0.0, 5.0), (2.0, 3.0), (-2.0, 0.5)]);
    }

    #[test]
    fn accessors_report_build_parameters() {
        let s = station(&[(&[(1.0, 1), (4.0, 4)], 6, 0.25), (&[(2.0, 2)], 3, 0.25)]);
        let index = RankIndex::build(&s).unwrap();
        assert_eq!(index.merged_entries(), 3);
        assert_eq!(RankIndex::probability(&index), 0.25);
        let boxed: Box<dyn QueryIndex> = Box::new(index);
        assert_eq!(boxed.merged_entries(), 3);
        assert_eq!(boxed.probability(), 0.25);
        assert_eq!(
            boxed.estimate(q(1.5, 3.5)).to_bits(),
            RankCounting.estimate(&s, q(1.5, 3.5)).to_bits()
        );
    }

    #[test]
    fn finish_is_exact_at_p_one() {
        assert_eq!(finish_rank_terms(42, 6, 1.0), 36.0);
        assert_eq!(finish_rank_terms(-3, 0, 0.25), -3.0);
    }
}
