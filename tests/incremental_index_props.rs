//! Property-based tests for the segmented incremental index.
//!
//! The [`SegmentedRankIndex`] contract extends the monolithic one: after
//! *any* interleaving of collection rounds — partial revivals at a
//! constant target, global top-ups to a higher target, partial top-ups
//! that raise the target while some leaves stay dead and others revive,
//! and the compactions they trigger — the index fed only the per-round deltas
//! must release exactly the bits of a monolithic [`RankIndex`] rebuilt
//! from scratch on the current station, and of the raw per-node scan.
//! The sweep drives random schedules over all three network drivers and
//! additionally pins the three drivers to each other bit-for-bit.
//!
//! Only *leaf* nodes of the aggregation tree are ever killed, so the
//! tree driver's delivered sample set equals the flat driver's (a dead
//! interior node would also cut off its descendants).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use prc::core::estimator::DeltaOutcome;
use prc::net::base_station::BaseStation;
use prc::net::message::NodeId;
use prc::prelude::*;

/// Nodes per network; with branching 2 the tree's leaves are the upper
/// half of the id space.
const NODES: usize = 8;
const LEAF_START: u32 = 4;
const LEAF_COUNT: usize = 4;
const PER_NODE: usize = 24;
const TREE_BRANCHING: usize = 2;

/// One randomized schedule step.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Revive up to `k` still-dead leaves and collect at the current
    /// target (revival catch-up: only the revived leaves change).
    Revive(usize),
    /// Raise the global target and collect (a full delta over every
    /// alive node, absorbed by the linear top-up rewrite).
    TopUp,
    /// Raise the global target while reviving up to `k` still-dead
    /// leaves and keeping the rest dead: one delta mixes nodes that top
    /// up with revived nodes the index has never held (replaced).
    PartialTopUp(usize),
}

fn partitions() -> Vec<Vec<f64>> {
    (0..NODES)
        .map(|i| {
            (0..PER_NODE)
                // Halved so duplicate values are common across nodes.
                .map(|j| ((i * PER_NODE + j) / 2) as f64)
                .collect()
        })
        .collect()
}

/// Kills the still-dead leaf suffix `[revived ..]`.
fn plan_for(revived: usize) -> FailurePlan {
    let mut plan = FailurePlan::none();
    for leaf in (LEAF_START + revived as u32)..(LEAF_START + LEAF_COUNT as u32) {
        plan.kill_node(NodeId(leaf));
    }
    plan
}

/// The per-step probe workload: spread, point, and out-of-support
/// ranges, varied by step so every round is checked on fresh cuts.
fn probes(step: usize) -> Vec<RangeQuery> {
    let n = (NODES * PER_NODE / 2) as f64;
    let pivot = n * (((step * 7) % 10) as f64) / 10.0;
    vec![
        RangeQuery::new(pivot, pivot).expect("valid probe"),
        RangeQuery::new(pivot * 0.5, pivot * 0.5 + n * 0.3).expect("valid probe"),
        RangeQuery::new(-10.0, -1.0).expect("valid probe"),
        RangeQuery::new(0.0, n + 10.0).expect("valid probe"),
    ]
}

/// Runs one schedule on one driver, absorbing each round's delta and
/// checking the segmented index against a fresh monolithic rebuild and
/// the scan after every step. Returns the segmented bits released.
fn run_driver<N: Network>(mut net: N, ops: &[Op], p0: f64) -> Result<Vec<u64>, TestCaseError> {
    let mut target = p0;
    let mut revived = 0usize;
    let mut index: Option<SegmentedRankIndex> = None;
    let mut bits = Vec::new();

    // Epoch 0: every leaf dead, first collection, initial build.
    net.set_failure_plan(plan_for(0));
    let delta = net.collect_delta(target);
    prop_assert_eq!(delta.changed.len(), NODES - LEAF_COUNT);
    absorb_or_build(&mut index, net.station(), &delta.changed)?;
    check_step(
        index.as_ref().expect("built at epoch 0"),
        net.station(),
        0,
        &mut bits,
    )?;

    for (step, &op) in ops.iter().enumerate() {
        let reporting = net.station().node_count();
        let before = target;
        match op {
            Op::Revive(k) => {
                revived = (revived + k.max(1)).min(LEAF_COUNT);
            }
            Op::TopUp => {
                // Bounded so the target stays a valid probability.
                target = (target + 0.17).min(0.95);
            }
            Op::PartialTopUp(k) => {
                revived = (revived + k.max(1)).min(LEAF_COUNT);
                target = (target + 0.17).min(0.95);
            }
        }
        net.set_failure_plan(plan_for(revived));
        let delta = net.collect_delta(target);
        let outcome = absorb_or_build(&mut index, net.station(), &delta.changed)?;
        let revived_now = net.station().node_count() - reporting;
        if matches!(op, Op::PartialTopUp(_)) && revived_now > 0 && target > before {
            // Every reporting node topped up and every revived one is new:
            // the old nodes are rewritten in place, the revived appended.
            prop_assert_eq!(delta.changed.len(), reporting + revived_now);
            let outcome = outcome.expect("built at epoch 0");
            prop_assert_eq!(outcome.tombstoned_entries, 0);
            prop_assert_eq!(
                outcome.rewritten_entries + outcome.appended_entries,
                net.station().total_samples(),
                "{:?}",
                outcome
            );
        }
        check_step(
            index.as_ref().expect("built at epoch 0"),
            net.station(),
            step + 1,
            &mut bits,
        )?;
    }

    let index = index.expect("built at epoch 0");
    // Compaction must keep the layout bounded no matter the schedule.
    prop_assert!(
        index.segments() <= 6,
        "compaction let segments grow to {}",
        index.segments()
    );
    Ok(bits)
}

/// Builds the index on the first call and absorbs `changed` after;
/// returns the absorb's outcome.
fn absorb_or_build(
    index: &mut Option<SegmentedRankIndex>,
    station: &BaseStation,
    changed: &[NodeId],
) -> Result<Option<DeltaOutcome>, TestCaseError> {
    match index {
        None => {
            *index = Some(SegmentedRankIndex::build(station).expect("uniform station"));
            Ok(None)
        }
        Some(idx) => {
            let outcome = idx.absorb_delta(station, changed);
            prop_assert!(
                outcome.is_some(),
                "revivals and top-ups keep the station uniform"
            );
            Ok(outcome)
        }
    }
}

/// Bit-identity after one step: segmented vs fresh monolithic rebuild vs
/// the per-node scan, on every probe.
fn check_step(
    index: &SegmentedRankIndex,
    station: &BaseStation,
    step: usize,
    bits: &mut Vec<u64>,
) -> Result<(), TestCaseError> {
    let fresh = RankIndex::build(station).expect("uniform station");
    for query in probes(step) {
        let segmented = index.estimate(query).to_bits();
        prop_assert_eq!(
            segmented,
            fresh.estimate(query).to_bits(),
            "segmented vs fresh monolithic rebuild at step {}",
            step
        );
        prop_assert_eq!(
            segmented,
            RankCounting.estimate(station, query).to_bits(),
            "segmented vs scan at step {}",
            step
        );
        bits.push(segmented);
    }
    Ok(())
}

proptest! {
    // Each case replays the schedule on three drivers with a rebuild
    // per step; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of revivals, top-ups, and the compactions they
    /// trigger leaves the delta-fed segmented index bit-identical to a
    /// fresh monolithic rebuild on every driver — and the three drivers
    /// bit-identical to each other.
    #[test]
    fn delta_fed_index_matches_fresh_rebuild_under_any_schedule(
        seed in 0u64..1_000,
        p0 in 0.15f64..0.4,
        raw_ops in proptest::collection::vec(0usize..6, 1..8),
    ) {
        let ops: Vec<Op> = raw_ops
            .iter()
            .map(|&r| match r {
                0 => Op::TopUp,
                1..=3 => Op::Revive(r),
                _ => Op::PartialTopUp(r - 3),
            })
            .collect();
        let flat = run_driver(
            FlatNetwork::from_partitions(partitions(), seed), &ops, p0,
        )?;
        let threaded = run_driver(
            ThreadedNetwork::from_partitions(partitions(), seed), &ops, p0,
        )?;
        let tree = run_driver(
            TreeNetwork::from_partitions(partitions(), TREE_BRANCHING, seed), &ops, p0,
        )?;
        prop_assert_eq!(&flat, &threaded, "flat vs threaded released bits");
        prop_assert_eq!(&flat, &tree, "flat vs tree released bits");
    }
}
