//! Property-based tests for the batched query engine.
//!
//! The engine's contract is *bit-identity*: the sorted-batch sweep and
//! the two-`partition_point` baseline must resolve exactly the same
//! boundary indices on any sorted array — so every downstream
//! `(ΣA, ΣB)` aggregate, and therefore every released answer, is
//! independent of which resolver ran and of how a driver chunked the
//! batch across workers. The properties drive random arrays
//! (duplicate-heavy, empty, all-equal, zero-valued samples), bounds
//! including explicit signed zeros, chunk widths standing in for worker
//! counts 1..=8, segmented indexes through 1..=5 delta rounds, and the
//! three network drivers against each other. Two fixed tests straddle
//! the cost thresholds: the sweep rule ([`batch_resolver`]) and the
//! batch driver's fan-out cutoff ([`ESTIMATE_FAN_OUT_MIN`]).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use prc::core::estimator::engine::{
    batch_resolver, boundary_ranks, resolve_batch, BatchResolver, SWEEP_MIN_ENTRIES,
    SWEEP_MIN_QUERIES,
};
use prc::core::estimator::index::{finish_rank_terms, scan_rank_terms};
use prc::core::pipeline::batch::ESTIMATE_FAN_OUT_MIN;
use prc::net::base_station::BaseStation;
use prc::prelude::*;
use prc_runtime::Runtime;

/// Builds a collected network from per-node value lists (sorted per
/// node, since rank order is value order) and returns its station.
fn collected_station(mut partitions: Vec<Vec<f64>>, seed: u64, p: f64) -> BaseStation {
    for node in &mut partitions {
        node.sort_by(f64::total_cmp);
    }
    let mut network = FlatNetwork::from_partitions(partitions, seed);
    network.collect_samples(p);
    network.station().clone()
}

/// Quantizes raw values into a narrow grid so duplicates are common.
fn quantize(raw: &[f64], buckets: f64) -> Vec<f64> {
    raw.iter().map(|v| (v * buckets).floor()).collect()
}

/// A query bound: usually a value from the wrapped range, one time in
/// five an explicit signed zero. `-0.0` and `+0.0` are distinct under
/// `total_cmp` but equal under the resolution predicates — the sweep's
/// probe sort must collapse them (the original keys stranded its
/// forward-only cursor).
#[derive(Debug, Clone)]
struct SignedBound(std::ops::Range<f64>);

impl Strategy for SignedBound {
    type Value = f64;

    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> f64 {
        match rng.next_u64() % 10 {
            0 => 0.0,
            1 => -0.0,
            _ => self.0.generate(rng),
        }
    }
}

fn signed_bound(range: std::ops::Range<f64>) -> SignedBound {
    SignedBound(range)
}

/// Appends `zeros` zero-valued samples (alternating sign) so signed-zero
/// bounds land *on* stored values, then re-sorts by `total_cmp`.
fn with_zero_samples(mut values: Vec<f64>, zeros: usize) -> Vec<f64> {
    values.extend((0..zeros).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 }));
    values.sort_by(f64::total_cmp);
    values
}

/// Query batch probing below, inside, across, and above the support,
/// built from consecutive pairs of a flat bound list: each pair yields
/// the spanning range plus a point query pinned to the integer grid
/// (where quantized values live, so boundaries land *on* duplicates).
fn queries_from(bounds: &[f64]) -> Vec<RangeQuery> {
    bounds
        .chunks_exact(2)
        .flat_map(|pair| {
            let (lower, upper) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            let pivot = lower.floor();
            [
                RangeQuery::new(lower, upper).expect("ordered bounds"),
                RangeQuery::new(pivot, pivot).expect("point query"),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An all-equal array is the degenerate worst case for the gallop
    /// (one run): the sweep still lands on the exact partition points.
    #[test]
    fn all_equal_arrays_resolve_exactly(
        value in -5.0f64..5.0,
        len in 0usize..120,
        bounds in proptest::collection::vec(signed_bound(-10.0f64..10.0), 2..24),
    ) {
        let values = vec![value; len];
        let queries = queries_from(&bounds);
        let resolved = resolve_batch(&values, &queries);
        for (i, &query) in queries.iter().enumerate() {
            let (pos_l, pos_u) = boundary_ranks(&values, query);
            prop_assert_eq!((resolved.pos_l[i], resolved.pos_u[i]), (pos_l, pos_u));
        }
    }

    /// The sorted-batch sweep scatters exactly the baseline's indices
    /// back into submission order, and chunking the batch (how a driver
    /// splits it across 1..=8 workers) never changes a single position.
    #[test]
    fn sweep_is_baseline_exact_and_chunk_invariant(
        raw in proptest::collection::vec(-1.0f64..1.0, 0..160),
        buckets in 1.0f64..16.0,
        bounds in proptest::collection::vec(signed_bound(-20.0f64..20.0), 2..64),
        zeros in 0usize..5,
    ) {
        let values = with_zero_samples(quantize(&raw, buckets), zeros);
        let queries = queries_from(&bounds);

        let whole = resolve_batch(&values, &queries);
        for (i, &query) in queries.iter().enumerate() {
            let (pos_l, pos_u) = boundary_ranks(&values, query);
            prop_assert_eq!(
                (whole.pos_l[i], whole.pos_u[i]),
                (pos_l, pos_u),
                "query {} of {}", i, queries.len()
            );
        }

        for workers in 1usize..=8 {
            let chunk_len = queries.len().div_ceil(workers);
            let mut pos_l = Vec::new();
            let mut pos_u = Vec::new();
            for chunk in queries.chunks(chunk_len) {
                let part = resolve_batch(&values, chunk);
                pos_l.extend(part.pos_l);
                pos_u.extend(part.pos_u);
            }
            prop_assert_eq!(&pos_l, &whole.pos_l, "{} workers", workers);
            prop_assert_eq!(&pos_u, &whole.pos_u, "{} workers", workers);
        }
    }

    /// On a collected station, every engine path through the monolithic
    /// index — per-query `partition_point`, the forced batch sweep, the
    /// cost-dispatched batch — and the raw per-node scan release
    /// identical bits.
    #[test]
    fn rank_index_engine_paths_are_bit_identical(
        seed in 0u64..1_000,
        p in 0.05f64..1.0,
        sizes in proptest::collection::vec(0usize..40, 1..10),
        bounds in proptest::collection::vec(-20.0f64..120.0, 2..48),
    ) {
        let partitions: Vec<Vec<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (0..s).map(|j| ((i * 13 + j * 7) % 97) as f64).collect())
            .collect();
        let station = collected_station(partitions, seed, p);
        prop_assume!(station.total_population() > 0);
        let index = RankIndex::build(&station).expect("uniform station");
        let queries = queries_from(&bounds);

        let sweep = index.estimate_sweep(&queries);
        let batch = index.estimate_batch(&queries);
        prop_assert_eq!(sweep.estimates.len(), queries.len());
        for (i, &query) in queries.iter().enumerate() {
            let baseline = index.estimate(query);
            let scanned = RankCounting.estimate(&station, query);
            prop_assert_eq!(
                sweep.estimates[i].to_bits(), baseline.to_bits(),
                "sweep {} vs baseline {}", sweep.estimates[i], baseline
            );
            prop_assert_eq!(batch.estimates[i].to_bits(), baseline.to_bits());
            prop_assert_eq!(baseline.to_bits(), scanned.to_bits());
        }
    }
}

/// Absorbs `rounds` incremental top-ups into a segmented index so its
/// layout spans multiple segments, checking every engine path against
/// the baseline after each round. Returns the segment count reached.
fn run_segmented_rounds(
    seed: u64,
    rounds: usize,
    queries: &[RangeQuery],
) -> Result<usize, TestCaseError> {
    let partitions: Vec<Vec<f64>> = (0..6)
        .map(|i| (0..30).map(|j| ((i * 30 + j) / 2) as f64).collect())
        .collect();
    let mut net = FlatNetwork::from_partitions(partitions, seed);
    let mut target = 0.2;
    net.collect_samples(target);
    let mut index = SegmentedRankIndex::build(net.station()).expect("uniform station");

    for round in 0..=rounds {
        if round > 0 {
            target = (target + 0.12).min(0.95);
            let delta = net.collect_delta(target);
            prop_assert!(
                index.absorb_delta(net.station(), &delta.changed).is_some(),
                "top-ups keep the station uniform"
            );
        }
        let fresh = RankIndex::build(net.station()).expect("uniform station");
        let sweep = index.estimate_sweep(queries);
        let batch = index.estimate_batch(queries);
        for (i, &query) in queries.iter().enumerate() {
            let baseline = index.estimate(query);
            prop_assert_eq!(sweep.estimates[i].to_bits(), baseline.to_bits());
            prop_assert_eq!(batch.estimates[i].to_bits(), baseline.to_bits());
            prop_assert_eq!(baseline.to_bits(), fresh.estimate(query).to_bits());
        }
    }
    Ok(index.segments())
}

proptest! {
    // Each case replays several collection rounds with a monolithic
    // rebuild per round; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A segmented index carried through 0..=4 delta rounds (so 1..=5
    /// segments before compaction) answers every engine path — per-query
    /// `partition_point`, forced sweep, dispatched batch — bit-identically to a fresh monolithic
    /// rebuild after every round.
    #[test]
    fn segmented_engine_paths_survive_delta_rounds(
        seed in 0u64..1_000,
        rounds in 0usize..=4,
        bounds in proptest::collection::vec(-10.0f64..100.0, 2..24),
    ) {
        let queries = queries_from(&bounds);
        let segments = run_segmented_rounds(seed, rounds, &queries)?;
        prop_assert!(segments >= 1);
    }

    /// End to end across drivers: flat, threaded, and tree brokers
    /// forced onto the indexed batch path release identical bits — and
    /// identical bits to a scan-forced flat broker — while the engine
    /// and plan-cache counters confirm which path ran.
    #[test]
    fn drivers_release_identical_batch_bits(
        seed in 0u64..1_000,
        bounds in proptest::collection::vec(0.0f64..4_000.0, 2..10),
    ) {
        let partitions: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..700).map(|j| (i * 700 + j) as f64).collect())
            .collect();
        let workload: Vec<QueryRequest> = bounds
            .chunks_exact(2)
            .map(|pair| {
                let (a, b) = (pair[0], pair[1]);
                QueryRequest::new(
                    RangeQuery::new(a.min(b), a.max(b)).unwrap(),
                    Accuracy::new(0.15, 0.5).unwrap(),
                )
            })
            .collect();

        let released_bits = |report: &BatchReport| -> Vec<u64> {
            report
                .answers
                .iter()
                .map(|a| a.as_ref().expect("batch member released").value.to_bits())
                .collect()
        };

        let mut broker =
            DataBroker::new(FlatNetwork::from_partitions(partitions.clone(), seed), seed);
        broker.set_index_threshold(0);
        let flat = broker.answer_batch(&workload);

        let mut broker = DataBroker::new(
            ThreadedNetwork::from_partitions(partitions.clone(), seed),
            seed,
        );
        broker.set_index_threshold(0);
        let threaded = broker.answer_batch(&workload);

        let mut broker =
            DataBroker::new(TreeNetwork::from_partitions(partitions.clone(), 2, seed), seed);
        broker.set_index_threshold(0);
        let tree = broker.answer_batch(&workload);

        let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions, seed), seed);
        broker.set_index_threshold(usize::MAX);
        let scanned = broker.answer_batch(&workload);

        let flat_bits = released_bits(&flat);
        prop_assert_eq!(&flat_bits, &released_bits(&threaded), "flat vs threaded");
        prop_assert_eq!(&flat_bits, &released_bits(&tree), "flat vs tree");
        prop_assert_eq!(&flat_bits, &released_bits(&scanned), "indexed vs scanned");

        // The indexed runs went through the engine; the scan run did not.
        prop_assert_eq!(flat.stats.engine_hits, workload.len() as u64);
        prop_assert_eq!(scanned.stats.engine_hits, 0);
        prop_assert_eq!(scanned.stats.gallop_steps, 0);
        // All members share one accuracy target and one rate tier, so
        // after the first grid sweep the remaining plans are memo hits
        // (exact count left open: an infeasibility retry re-sweeps).
        if workload.len() >= 2 {
            prop_assert!(
                flat.stats.plan_cache_hits >= 1,
                "no plan-cache hit across {} same-accuracy members",
                workload.len()
            );
        }
    }
}

/// Sample values and query bounds that have hidden resolver bugs
/// before: both signed zeros, subnormals of both signs, and small
/// integers that every node repeats many times.
const EDGE_VALUES: [f64; 6] = [-0.0, 0.0, 5e-324, -5e-324, 1.0, 7.0];

/// Bounds drawn from [`EDGE_VALUES`] plus both infinities, a far-out
/// finite value and two repeated interior values.
const EDGE_BOUNDS: [f64; 11] = [
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    -5e-324,
    5e-324,
    1.0,
    7.0,
    64.0,
    1_000.0,
    1e300,
    f64::INFINITY,
];

/// `k` nodes of `per_node` values: every third value an edge value, the
/// rest `j / 4`, so each integer appears four times per node.
fn edge_partitions(k: usize, per_node: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|i| {
            (0..per_node)
                .map(|j| match j % 3 {
                    0 => EDGE_VALUES[(i + j) % EDGE_VALUES.len()],
                    _ => (j / 4) as f64,
                })
                .collect()
        })
        .collect()
}

/// `count` queries: every ordered pair of [`EDGE_BOUNDS`] (point
/// queries included, and `[0.0, -0.0]`, which is valid since the two
/// zeros compare equal), then duplicated-value ranges over `[0, span)`
/// with widths 0..=6.
fn edge_queries(count: usize, span: usize) -> Vec<RangeQuery> {
    let mut queries: Vec<RangeQuery> = EDGE_BOUNDS
        .iter()
        .flat_map(|&l| EDGE_BOUNDS.iter().map(move |&u| (l, u)))
        .filter_map(|(l, u)| RangeQuery::new(l, u).ok())
        .collect();
    let mut i = 0usize;
    while queries.len() < count {
        let lower = ((i * 37) % span) as f64;
        queries.push(RangeQuery::new(lower, lower + (i % 7) as f64).expect("ordered"));
        i += 1;
    }
    queries.truncate(count);
    queries
}

/// `estimate_batch` with the batch size on each side of the sweep rule,
/// over an index large enough for the sweep: both sides release the
/// per-query bits and the per-node scan's estimates, for monolithic and
/// segmented indexes alike.
#[test]
fn estimate_batch_matches_the_scan_on_both_sides_of_the_sweep_rule() {
    let per_node = 16_400;
    let station = collected_station(edge_partitions(8, per_node), 5, 1.0);
    let p = station.uniform_probability().expect("uniform station");
    let monolithic = RankIndex::build(&station).expect("uniform station");
    let segmented = SegmentedRankIndex::build(&station).expect("uniform station");
    assert!(monolithic.merged_entries() >= SWEEP_MIN_ENTRIES);
    let indexes: [&dyn QueryIndex; 2] = [&monolithic, &segmented];

    for (count, resolver) in [
        (SWEEP_MIN_QUERIES - 1, BatchResolver::PartitionPoint),
        (SWEEP_MIN_QUERIES, BatchResolver::Sweep),
    ] {
        let queries = edge_queries(count, per_node / 4);
        assert_eq!(batch_resolver(count, monolithic.merged_entries()), resolver);
        let scanned: Vec<u64> = queries
            .iter()
            .map(|&query| {
                let (sum_a, sum_b) = scan_rank_terms(&station, query);
                finish_rank_terms(sum_a, sum_b, p).to_bits()
            })
            .collect();
        for index in indexes {
            let batch = index.estimate_batch(&queries);
            let bits: Vec<u64> = batch.estimates.iter().map(|e| e.to_bits()).collect();
            assert_eq!(bits, scanned, "{count} queries via {resolver:?}");
            let single: Vec<u64> = queries
                .iter()
                .map(|&query| index.estimate(query).to_bits())
                .collect();
            assert_eq!(single, scanned, "{count} single queries");
            if resolver == BatchResolver::PartitionPoint {
                assert_eq!(batch.gallop_steps, 0, "no sweep below the rule");
            }
        }
    }
}

/// One batch of two rate tiers, one a query short of the fan-out cutoff
/// and one at it, releases exactly what per-request `answer` calls on a
/// scan-only broker release, estimate and noise alike.
#[test]
fn batch_tiers_straddling_the_fan_out_cutoff_match_per_request_answers() {
    let per_node = 1_200;
    let edge_ranges = edge_queries(ESTIMATE_FAN_OUT_MIN, per_node / 4);
    // Looser demands need a lower sampling rate, so their tier runs
    // first; inputs already in tier order make `answer` in input order
    // the sequence the batch driver replays.
    let loose = Accuracy::new(0.2, 0.5).expect("valid");
    let strict = Accuracy::new(0.1, 0.6).expect("valid");
    let workload: Vec<QueryRequest> = edge_ranges[..ESTIMATE_FAN_OUT_MIN - 1]
        .iter()
        .map(|&query| QueryRequest::new(query, loose))
        .chain(
            edge_ranges
                .iter()
                .map(|&query| QueryRequest::new(query, strict)),
        )
        .collect();
    let network = || FlatNetwork::from_partitions(edge_partitions(6, per_node), 17);
    let released = |answer: Result<PrivateAnswer, CoreError>| {
        answer.map(|a| (a.value.to_bits(), a.sample_estimate.to_bits()))
    };

    let mut batched = DataBroker::new(network(), 17);
    batched.set_index_threshold(0);
    let report = batched.answer_batch(&workload);
    assert_eq!(report.stats.rate_tiers, 2);
    assert_eq!(report.stats.indexed_estimates, workload.len() as u64);
    assert_eq!(
        report.stats.fan_out_threads,
        Runtime::global().lanes_for(ESTIMATE_FAN_OUT_MIN) as u64
    );

    let mut sequential = DataBroker::new(network(), 17);
    sequential.set_index_threshold(usize::MAX);
    for (i, (request, answer)) in workload.iter().zip(report.answers).enumerate() {
        assert_eq!(
            released(answer),
            released(sequential.answer(request)),
            "request {i}: {request}"
        );
    }
    assert_eq!(sequential.counters().indexed_estimates, 0);
}
