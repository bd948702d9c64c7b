//! Sensor nodes: local data, ranks, and incremental Bernoulli sampling.

// prc-lint: allow(B003, reason = "seeded per-node Bernoulli sampling randomness; not privacy noise")
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::message::{NodeId, SampleEntry, SampleMessage};

/// A smart device holding a sorted local dataset `D_i`.
///
/// Each node samples its data elements independently with probability `p`
/// and ships the sampled values *with their local ranks* to the base
/// station (§III-A). When the base station later needs a higher sampling
/// probability, the node **tops up**: every not-yet-sampled element is
/// included with conditional probability `(p' − p)/(1 − p)`, which makes
/// the cumulative inclusion probability of every element exactly `p'`
/// without discarding the samples already shipped.
///
/// # Examples
///
/// ```
/// use prc_net::message::NodeId;
/// use prc_net::node::SensorNode;
///
/// let mut node = SensorNode::new(NodeId(0), vec![5.0, 1.0, 3.0], 42);
/// let batch = node.sample_to(1.0); // full sampling
/// assert_eq!(batch.entries.len(), 3);
/// // Ranks follow the sorted order: 1.0 has rank 1, 5.0 has rank 3.
/// assert_eq!(batch.entries[0].value, 1.0);
/// assert_eq!(batch.entries[2].rank, 3);
/// // Topping up to a lower probability is a no-op.
/// assert!(node.sample_to(0.5).entries.is_empty());
/// ```
#[derive(Debug)]
pub struct SensorNode {
    id: NodeId,
    /// Local data, sorted ascending. Rank `r` (1-based) = `data[r-1]`.
    data: Vec<f64>,
    /// Bit `pos % 64` of word `pos / 64` is set once position `pos` has
    /// been sampled and shipped; bits past `data.len()` stay clear.
    sampled: Vec<u64>,
    /// Cumulative inclusion probability reached so far.
    probability: f64,
    rng: StdRng,
}

impl SensorNode {
    /// Creates a node from its raw (unsorted) local data.
    ///
    /// The RNG is seeded from `seed` and the node id, so a network of
    /// nodes built from the same seed is fully deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `data` contains NaN (ranks would be ill-defined).
    pub fn new(id: NodeId, mut data: Vec<f64>, seed: u64) -> Self {
        assert!(
            data.iter().all(|v| !v.is_nan()),
            "node data must not contain NaN"
        );
        data.sort_by(f64::total_cmp);
        let words = data.len().div_ceil(64);
        SensorNode {
            id,
            data,
            sampled: vec![0; words],
            probability: 0.0,
            rng: StdRng::seed_from_u64(seed ^ (u64::from(id.0) << 32 | 0x9e37_79b9)),
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Size `n_i` of the local dataset.
    pub fn population_size(&self) -> usize {
        self.data.len()
    }

    /// Cumulative sampling probability reached so far.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// The sorted local data (test and exact-count support).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Number of elements sampled so far.
    pub fn sampled_count(&self) -> usize {
        self.sampled.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Raises the cumulative sampling probability to `target` and returns
    /// the batch of newly sampled entries.
    ///
    /// Returns an empty batch when `target` does not exceed the current
    /// probability. Entries are sorted by rank. The cumulative inclusion
    /// probability of *every* element after the call is exactly
    /// `max(target, previous)`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1]`.
    pub fn sample_to(&mut self, target: f64) -> SampleMessage {
        assert!(
            target > 0.0 && target <= 1.0,
            "sampling probability must be in (0, 1], got {target}"
        );
        let mut entries = Vec::new();
        if target > self.probability {
            // Conditional inclusion probability for not-yet-sampled elements.
            let conditional = if self.probability >= 1.0 {
                0.0
            } else {
                (target - self.probability) / (1.0 - self.probability)
            };
            // One draw per unsampled position, in ascending order: the
            // walk skips sampled positions a word at a time and keeps the
            // draws branch-free; the positions taken are written back
            // once per word and kept in `fresh` for the batch.
            //
            // A uniform `f64` draw is `(next_u64() >> 11) · 2⁻⁵³`, and
            // scaling by a power of two is exact, so `draw < conditional`
            // holds exactly when `next_u64() >> 11 < ⌈conditional · 2⁵³⌉`:
            // the integer test takes the same positions without the
            // float conversion.
            let threshold = (conditional * (1u64 << 53) as f64).ceil() as u64;
            let len = self.data.len();
            let mut fresh = vec![0u64; self.sampled.len()];
            for (w, (word, fresh_word)) in self.sampled.iter_mut().zip(&mut fresh).enumerate() {
                let tail = len - w * 64;
                let mut open = if tail >= 64 {
                    !*word
                } else {
                    !*word & ((1 << tail) - 1)
                };
                let mut taken = 0u64;
                while open != 0 {
                    let bit = open.trailing_zeros();
                    open &= open - 1;
                    taken |= u64::from(self.rng.next_u64() >> 11 < threshold) << bit;
                }
                *word |= taken;
                *fresh_word = taken;
            }
            // Sized exactly: the batch's vector becomes the station's.
            entries.reserve_exact(fresh.iter().map(|w| w.count_ones() as usize).sum());
            for (w, mut taken) in fresh.into_iter().enumerate() {
                while taken != 0 {
                    let pos = w * 64 + taken.trailing_zeros() as usize;
                    taken &= taken - 1;
                    entries.push(SampleEntry {
                        value: self.data[pos],
                        rank: pos as u32 + 1,
                    });
                }
            }
            self.probability = target;
        }
        SampleMessage {
            node_id: self.id,
            population_size: self.data.len(),
            probability: self.probability,
            entries,
        }
    }

    /// Exact local range count `γ(l, u, i) = |{x ∈ D_i : l ≤ x ≤ u}|`.
    ///
    /// Ground truth for evaluation; a real device would never be asked to
    /// compute this over the network.
    pub fn exact_range_count(&self, l: f64, u: f64) -> usize {
        if l > u {
            return 0;
        }
        let lo = self.data.partition_point(|&v| v < l);
        let hi = self.data.partition_point(|&v| v <= u);
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    fn node(data: Vec<f64>, seed: u64) -> SensorNode {
        SensorNode::new(NodeId(1), data, seed)
    }

    #[test]
    fn data_is_sorted_and_ranks_match() {
        let mut n = node(vec![5.0, 1.0, 3.0], 7);
        assert_eq!(n.data(), &[1.0, 3.0, 5.0]);
        let batch = n.sample_to(1.0);
        assert_eq!(batch.entries.len(), 3);
        for (i, e) in batch.entries.iter().enumerate() {
            assert_eq!(e.rank as usize, i + 1);
            assert_eq!(e.value, n.data()[i]);
        }
    }

    #[test]
    fn p_one_samples_everything() {
        let mut n = node((0..100).map(f64::from).collect(), 3);
        let batch = n.sample_to(1.0);
        assert_eq!(batch.entries.len(), 100);
        assert_eq!(n.sampled_count(), 100);
        assert_eq!(batch.probability, 1.0);
    }

    #[test]
    fn top_up_only_ships_new_entries() {
        let mut n = node((0..10_000).map(f64::from).collect(), 11);
        let first = n.sample_to(0.2);
        let second = n.sample_to(0.5);
        // No rank appears twice across batches.
        let mut ranks: Vec<u32> = first
            .entries
            .iter()
            .chain(second.entries.iter())
            .map(|e| e.rank)
            .collect();
        let total = ranks.len();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), total, "a rank was shipped twice");
        assert_eq!(n.sampled_count(), total);
        assert_eq!(n.probability(), 0.5);
    }

    #[test]
    fn top_up_reaches_exact_cumulative_probability() {
        // Statistically: sampling to 0.3 then topping to 0.6 must include
        // each element with probability 0.6.
        let mut total = 0usize;
        let runs = 400;
        let size = 1_000;
        for seed in 0..runs {
            let mut n = node((0..size).map(f64::from).collect(), seed);
            n.sample_to(0.3);
            n.sample_to(0.6);
            total += n.sampled_count();
        }
        let rate = total as f64 / (runs as usize * size as usize) as f64;
        assert!((rate - 0.6).abs() < 0.01, "empirical inclusion rate {rate}");
    }

    #[test]
    fn lower_target_is_a_noop() {
        let mut n = node((0..1000).map(f64::from).collect(), 5);
        n.sample_to(0.5);
        let count = n.sampled_count();
        let batch = n.sample_to(0.3);
        assert!(batch.entries.is_empty());
        assert_eq!(n.sampled_count(), count);
        assert_eq!(n.probability(), 0.5);
    }

    #[test]
    fn repeated_same_target_is_a_noop() {
        let mut n = node((0..1000).map(f64::from).collect(), 5);
        n.sample_to(0.4);
        let batch = n.sample_to(0.4);
        assert!(batch.entries.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn zero_probability_panics() {
        node(vec![1.0], 0).sample_to(0.0);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn above_one_panics() {
        node(vec![1.0], 0).sample_to(1.5);
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_data_panics() {
        let _ = node(vec![1.0, f64::NAN], 0);
    }

    #[test]
    fn empty_node_is_fine() {
        let mut n = node(vec![], 1);
        let batch = n.sample_to(0.9);
        assert!(batch.entries.is_empty());
        assert_eq!(batch.population_size, 0);
        assert_eq!(n.exact_range_count(0.0, 10.0), 0);
    }

    #[test]
    fn exact_range_count_is_inclusive_on_both_ends() {
        let n = node(vec![1.0, 2.0, 2.0, 3.0, 5.0], 1);
        assert_eq!(n.exact_range_count(2.0, 3.0), 3);
        assert_eq!(n.exact_range_count(0.0, 10.0), 5);
        assert_eq!(n.exact_range_count(4.0, 4.5), 0);
        assert_eq!(n.exact_range_count(5.0, 5.0), 1);
        assert_eq!(n.exact_range_count(3.0, 2.0), 0); // inverted range
    }

    #[test]
    fn deterministic_per_seed_and_id() {
        let mut a = SensorNode::new(NodeId(4), (0..500).map(f64::from).collect(), 99);
        let mut b = SensorNode::new(NodeId(4), (0..500).map(f64::from).collect(), 99);
        assert_eq!(a.sample_to(0.3), b.sample_to(0.3));
        // Different ids diverge.
        let mut c = SensorNode::new(NodeId(5), (0..500).map(f64::from).collect(), 99);
        assert_ne!(a.sample_to(0.9).entries, c.sample_to(0.9).entries);
    }

    /// The per-element `Vec<bool>` walk the bitset replaced: one draw
    /// per unsampled position, in ascending order.
    struct Reference {
        data: Vec<f64>,
        sampled: Vec<bool>,
        probability: f64,
        rng: StdRng,
    }

    impl Reference {
        fn sample_to(&mut self, target: f64) -> Vec<SampleEntry> {
            let mut entries = Vec::new();
            if target > self.probability {
                let conditional = if self.probability >= 1.0 {
                    0.0
                } else {
                    (target - self.probability) / (1.0 - self.probability)
                };
                for (pos, taken) in self.sampled.iter_mut().enumerate() {
                    if !*taken && self.rng.random::<f64>() < conditional {
                        *taken = true;
                        entries.push(SampleEntry {
                            value: self.data[pos],
                            rank: pos as u32 + 1,
                        });
                    }
                }
                self.probability = target;
            }
            entries
        }
    }

    #[test]
    fn bitset_top_ups_match_the_per_element_walk() {
        let mut targets = StdRng::seed_from_u64(0x5eed);
        for len in [0usize, 1, 63, 64, 65, 127, 128, 200, 1_000] {
            for seed in 0..6u64 {
                let data: Vec<f64> = (0..len).map(|i| (i % 17) as f64).collect();
                let id = NodeId(seed as u32);
                let mut node = SensorNode::new(id, data, seed);
                let mut reference = Reference {
                    data: node.data().to_vec(),
                    sampled: vec![false; len],
                    probability: 0.0,
                    rng: StdRng::seed_from_u64(seed ^ (u64::from(id.0) << 32 | 0x9e37_79b9)),
                };
                // Random targets, so raises, repeats and decreases; seed 5
                // ends its sequence at p = 1.
                let rounds = 1 + (seed as usize % 5);
                for round in 0..=rounds {
                    let target = if round == rounds && seed == 5 {
                        1.0
                    } else {
                        targets.random_range(0.01..1.0)
                    };
                    let batch = node.sample_to(target);
                    assert_eq!(
                        batch.entries,
                        reference.sample_to(target),
                        "len {len}, seed {seed}, round {round}"
                    );
                    assert_eq!(
                        node.sampled_count(),
                        reference.sampled.iter().filter(|&&s| s).count()
                    );
                    assert_eq!(batch.probability.to_bits(), reference.probability.to_bits());
                }
                if seed == 5 {
                    assert_eq!(node.sampled_count(), len);
                    assert!(node.sample_to(1.0).entries.is_empty());
                }
            }
        }
    }

    #[test]
    fn sampling_rate_is_close_to_p() {
        let mut n = node((0..50_000).map(f64::from).collect(), 13);
        n.sample_to(0.2);
        let rate = n.sampled_count() as f64 / 50_000.0;
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }
}
