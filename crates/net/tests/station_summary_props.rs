//! The base station's per-revision summary must agree bit for bit with a
//! from-scratch fold over its node records, after any ingest sequence and
//! on clones, so a cached aggregate can never outlive the revision it was
//! folded at.

use proptest::prelude::*;

use prc_net::base_station::{BaseStation, NodeSample};
use prc_net::message::{NodeId, SampleEntry, SampleMessage};

/// Claimed populations: zero-population nodes, repeats (no change) and
/// moves between them (population changes).
const POPULATIONS: [usize; 8] = [0, 10, 10, 25, 50, 50, 100, 7];

/// Probabilities: `p = 1`, zero, two subnormals, and a spread of rates
/// whose random order produces stale lower-probability messages.
const PROBABILITIES: [f64; 16] = [
    0.0,
    1.0,
    5e-324,
    f64::MIN_POSITIVE / 4.0,
    0.1,
    0.25,
    0.25,
    0.5,
    0.5,
    0.75,
    1e-300,
    0.3,
    0.2,
    0.9,
    1.0,
    0.05,
];

/// Decodes one random word into a message for one of six nodes: up to
/// seven entries with ranks in `0..16` (so duplicates are frequent), or
/// none at all (a Drop-mode registration).
fn message(word: u64) -> SampleMessage {
    let node = (word & 7) as u32 % 6;
    let population_size = POPULATIONS[((word >> 3) & 7) as usize];
    let probability = PROBABILITIES[((word >> 6) & 15) as usize];
    let count = ((word >> 10) & 7) as usize;
    let entries = (0..count)
        .map(|j| {
            let rank = ((word >> (13 + 4 * j)) & 15) as u32;
            SampleEntry {
                value: f64::from(rank),
                rank,
            }
        })
        .collect();
    SampleMessage {
        node_id: NodeId(node),
        population_size,
        probability,
        entries,
    }
}

/// Every summary-backed aggregate, with floats as bit patterns.
#[derive(Debug, PartialEq)]
struct Aggregates {
    total_population: usize,
    total_samples: usize,
    max_node_population: usize,
    effective_probability: u64,
    uniform_probability: Option<u64>,
}

/// The station's accessors.
fn cached(station: &BaseStation) -> Aggregates {
    Aggregates {
        total_population: station.total_population(),
        total_samples: station.total_samples(),
        max_node_population: station.max_node_population(),
        effective_probability: station.effective_probability().to_bits(),
        uniform_probability: station.uniform_probability().map(f64::to_bits),
    }
}

/// The same aggregates folded from scratch over the node records.
fn folded(station: &BaseStation) -> Aggregates {
    let empty = station.node_count() == 0;
    let mut shared: Option<u64> = None;
    let mut uniform = true;
    for sample in station.data_bearing_samples() {
        let bits = sample.probability.to_bits();
        match shared {
            None => shared = Some(bits),
            Some(prev) => uniform &= prev == bits,
        }
    }
    Aggregates {
        total_population: station.node_samples().map(|s| s.population_size).sum(),
        total_samples: station.node_samples().map(NodeSample::len).sum(),
        max_node_population: station
            .node_samples()
            .map(|s| s.population_size)
            .max()
            .unwrap_or(0),
        effective_probability: station
            .node_samples()
            .map(|s| s.probability)
            .fold(f64::INFINITY, f64::min)
            .clamp(0.0, 1.0)
            .min(if empty { 0.0 } else { 1.0 })
            .to_bits(),
        uniform_probability: shared
            .filter(|_| uniform)
            .map(f64::from_bits)
            .filter(|&p| p > 0.0)
            .map(f64::to_bits),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reading after every ingest: the summary tracks each revision,
    /// including the ones that do not change anything.
    #[test]
    fn summary_matches_the_fold_after_every_ingest(
        words in proptest::collection::vec(0u64..u64::MAX, 0..48),
    ) {
        let mut station = BaseStation::new();
        prop_assert_eq!(cached(&station), folded(&station));
        for &word in &words {
            let before = station.revision();
            station.ingest(message(word));
            prop_assert!(station.revision() >= before);
            prop_assert_eq!(cached(&station), folded(&station));
        }
    }

    /// Reading only at the end: the first read folds the final revision.
    #[test]
    fn summary_matches_the_fold_on_a_fresh_read(
        words in proptest::collection::vec(0u64..u64::MAX, 0..48),
    ) {
        let mut station = BaseStation::new();
        for &word in &words {
            station.ingest(message(word));
        }
        prop_assert_eq!(cached(&station), folded(&station));
    }

    /// Clones taken with and without a cached summary agree with the
    /// fold, and keep agreeing as each one diverges by further ingests.
    #[test]
    fn clones_carry_a_valid_summary(
        prefix in proptest::collection::vec(0u64..u64::MAX, 0..32),
        suffix in proptest::collection::vec(0u64..u64::MAX, 1..16),
    ) {
        let mut station = BaseStation::new();
        for &word in &prefix {
            station.ingest(message(word));
        }
        let mut cold = station.clone();
        let _ = cached(&station);
        let mut warm = station.clone();
        prop_assert_eq!(cached(&cold), folded(&cold));
        prop_assert_eq!(cached(&warm), folded(&warm));
        for &word in &suffix {
            warm.ingest(message(word));
            prop_assert_eq!(cached(&warm), folded(&warm));
        }
        for &word in suffix.iter().rev() {
            cold.ingest(message(word));
        }
        prop_assert_eq!(cached(&cold), folded(&cold));
        // The original never saw the suffix.
        prop_assert_eq!(cached(&station), folded(&station));
    }
}

fn entry(rank: u32) -> SampleEntry {
    SampleEntry {
        value: f64::from(rank),
        rank,
    }
}

fn msg(node: u32, n: usize, p: f64, ranks: &[u32]) -> SampleMessage {
    SampleMessage {
        node_id: NodeId(node),
        population_size: n,
        probability: p,
        entries: ranks.iter().copied().map(entry).collect(),
    }
}

#[test]
fn a_changing_ingest_replaces_the_read_summary() {
    let mut station = BaseStation::new();
    station.ingest(msg(1, 10, 0.5, &[1, 2]));
    station.ingest(msg(2, 20, 0.5, &[3]));
    assert_eq!(station.total_population(), 30);
    assert_eq!(station.total_samples(), 3);
    assert_eq!(station.max_node_population(), 20);
    assert_eq!(station.effective_probability(), 0.5);
    assert_eq!(station.uniform_probability(), Some(0.5));

    // A lagging node with a bigger population moves every aggregate.
    station.ingest(msg(3, 40, 0.25, &[4, 5]));
    assert_eq!(cached(&station), folded(&station));
    assert_eq!(station.total_population(), 70);
    assert_eq!(station.total_samples(), 5);
    assert_eq!(station.max_node_population(), 40);
    assert_eq!(station.effective_probability(), 0.25);
    assert_eq!(station.uniform_probability(), None);

    // A node shrinking its claim lowers the total and the maximum.
    station.ingest(msg(3, 5, 0.5, &[]));
    assert_eq!(station.total_population(), 35);
    assert_eq!(station.max_node_population(), 20);
    assert_eq!(station.effective_probability(), 0.5);
    assert_eq!(station.uniform_probability(), Some(0.5));
}

#[test]
fn an_unchanging_ingest_keeps_the_revision_and_the_summary() {
    let mut station = BaseStation::new();
    station.ingest(msg(1, 10, 0.5, &[1, 2]));
    let revision = station.revision();
    let before = cached(&station);
    // Re-delivery and a stale lower-probability message change nothing.
    station.ingest(msg(1, 10, 0.5, &[2, 1]));
    station.ingest(msg(1, 10, 0.25, &[1]));
    assert_eq!(station.revision(), revision);
    assert_eq!(cached(&station), before);
    assert_eq!(cached(&station), folded(&station));
}
