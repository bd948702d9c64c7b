//! Streaming/dynamic integration: outage-ridden streams, sliding-window
//! monitoring under failure, and dynamic node membership end to end.

use prc::core::estimator::{RangeCountEstimator, RankCounting};
use prc::core::monitor::{ContinuousMonitor, MonitorConfig};
use prc::data::stream::{SlidingWindow, StreamReplayer};
use prc::net::trace::Tracer;
use prc::prelude::*;

#[test]
fn monitor_survives_an_outage_ridden_stream() {
    // Sensor outages punch irregular gaps into the stream; the window and
    // monitor must keep functioning across them.
    let dataset = CityPulseGenerator::new(3)
        .record_count(4_000)
        .outages(0.01, 15.0)
        .generate();
    assert!(dataset.len() < 4_000, "outages must have dropped records");

    let mut replay = StreamReplayer::new(&dataset);
    let mut monitor = ContinuousMonitor::new(MonitorConfig {
        query: RangeQuery::new(60.0, 140.0).unwrap(),
        accuracy: Accuracy::new(0.2, 0.5).unwrap(),
        index: AirQualityIndex::Ozone,
        window_seconds: 12 * 3_600,
        nodes: 6,
        session_budget: Epsilon::new(50.0).unwrap(),
        seed: 3,
    });
    let mut epochs = 0;
    while !replay.is_exhausted() && epochs < 8 {
        monitor.ingest(replay.advance_by(400));
        if monitor.window_size() > 0 {
            let result = monitor.answer_epoch().unwrap();
            assert!(result.answer.value.is_finite());
            epochs += 1;
        }
    }
    assert!(epochs >= 6, "only {epochs} epochs ran");
}

#[test]
fn sliding_window_tolerates_gap_larger_than_span() {
    // A gap longer than the window must fully flush it.
    let mut window = SlidingWindow::new(3_600);
    let mk = |ts: i64| prc::data::record::PollutionRecord {
        timestamp: prc::data::time::Timestamp(ts),
        sensor_id: 0,
        ozone: 1.0,
        particulate_matter: 1.0,
        carbon_monoxide: 1.0,
        sulfur_dioxide: 1.0,
        nitrogen_dioxide: 1.0,
    };
    window.ingest_all([mk(0), mk(300), mk(600)]);
    assert_eq!(window.len(), 3);
    // Jump 2 hours — far beyond the 1-hour span.
    window.ingest(mk(7_800));
    assert_eq!(window.len(), 1);
}

#[test]
fn dynamic_nodes_join_a_live_marketplace() {
    let dataset = CityPulseGenerator::new(11).record_count(4_000).generate();
    let values = dataset.values(AirQualityIndex::CarbonMonoxide);
    let (early, late) = values.split_at(3_000);
    let parts = prc::data::partition::partition_values(early, 10, PartitionStrategy::RoundRobin);

    let mut network = FlatNetwork::from_partitions(parts, 9);
    let tracer = Tracer::new(1_024);
    network.set_tracer(tracer.clone());
    network.collect_samples(0.4);
    let query = RangeQuery::new(40.0, 90.0).unwrap();
    let before = RankCounting.estimate(network.station(), query);

    // Two late-joining devices bring the remaining records.
    let (a, b) = late.split_at(late.len() / 2);
    network.add_node(a.to_vec(), 9);
    network.add_node(b.to_vec(), 9);
    network.collect_samples(0.4);
    let after = RankCounting.estimate(network.station(), query);

    let truth_before = early
        .iter()
        .filter(|&&v| (40.0..=90.0).contains(&v))
        .count() as f64;
    let truth_after = values
        .iter()
        .filter(|&&v| (40.0..=90.0).contains(&v))
        .count() as f64;
    assert!((before - truth_before).abs() < 0.15 * truth_before.max(200.0));
    assert!((after - truth_after).abs() < 0.15 * truth_after.max(200.0));
    assert!(after > before, "the estimate must grow with the population");

    // The trace shows exactly two extra deliveries in round 2.
    let events = tracer.events();
    let round_markers: Vec<_> = events
        .iter()
        .filter(|e| e.kind() == "round_completed")
        .collect();
    assert_eq!(round_markers.len(), 2);
    let second_round_deliveries = events
        .iter()
        .skip_while(|e| e.kind() != "round_completed")
        .skip(1)
        .filter(|e| e.kind() == "batch_delivered")
        .count();
    assert_eq!(
        second_round_deliveries, 2,
        "only the newcomers ship in round 2"
    );
}

#[test]
fn windowed_broker_answers_match_window_truth() {
    // Build datasets from window snapshots and verify the broker answers
    // against the *window's* truth, not the stream's.
    let dataset = CityPulseGenerator::new(21).record_count(2_000).generate();
    let mut replay = StreamReplayer::new(&dataset);
    let mut window = SlidingWindow::new(8 * 3_600);
    let mut checked = 0;
    for step in 0..5 {
        window.ingest_all(replay.advance_by(400));
        let snapshot = window.snapshot();
        let values = snapshot.values(AirQualityIndex::Ozone);
        let truth = values
            .iter()
            .filter(|&&v| (70.0..=130.0).contains(&v))
            .count() as f64;
        if truth < 10.0 {
            continue;
        }
        let network = FlatNetwork::from_dataset(
            &snapshot,
            AirQualityIndex::Ozone,
            5,
            PartitionStrategy::RoundRobin,
            21 + step,
        );
        let mut broker = DataBroker::new(network, 21 + step);
        // δ = 0.9: at most 10% of answers may exceed αn, with
        // exponentially decaying tails beyond it — 3αn is a safe test
        // bound (exceedance probability < 0.1%).
        let accuracy = Accuracy::new(0.2, 0.9).unwrap();
        let answer = broker
            .answer(&QueryRequest::new(
                RangeQuery::new(70.0, 130.0).unwrap(),
                accuracy,
            ))
            .unwrap();
        let allowance = accuracy.alpha() * snapshot.len() as f64;
        assert!(
            (answer.value - truth).abs() <= 3.0 * allowance + 30.0,
            "step {step}: answer {} vs window truth {truth} (allowance {allowance})",
            answer.value
        );
        checked += 1;
    }
    assert!(checked >= 3, "too few windows checked: {checked}");
}

/// The epoch path `ContinuousMonitor::answer_epoch` replaced: snapshot
/// the window, partition it round-robin through
/// `FlatNetwork::from_dataset` and answer with a fresh broker, threading
/// the session accountant and the index cache through the same way.
struct SnapshotReplay {
    config: MonitorConfig,
    window: SlidingWindow,
    accountant: Option<BudgetAccountant>,
    index_cache: Option<prc::core::broker::IndexCacheHandle>,
    epoch: u64,
}

impl SnapshotReplay {
    fn answer_epoch(&mut self) -> Result<prc::core::monitor::EpochResult, CoreError> {
        let snapshot = self.window.snapshot();
        if snapshot.is_empty() {
            return Err(CoreError::NoSamples);
        }
        let network = FlatNetwork::from_dataset(
            &snapshot,
            self.config.index,
            self.config.nodes.min(snapshot.len()),
            PartitionStrategy::RoundRobin,
            self.config.seed ^ self.epoch,
        );
        let mut broker = DataBroker::new(network, self.config.seed ^ (self.epoch << 17));
        broker.install_accountant(
            self.accountant
                .take()
                .expect("the session accountant is home"),
        );
        if let Some(handle) = self.index_cache.take() {
            broker.install_index_cache(handle);
        }
        let outcome = broker.answer(&QueryRequest::new(self.config.query, self.config.accuracy));
        self.accountant = broker.take_accountant();
        self.index_cache = broker.take_index_cache();
        let answer = outcome?;
        let result = prc::core::monitor::EpochResult {
            epoch: self.epoch,
            window_size: snapshot.len(),
            answer,
            budget_remaining: self
                .accountant
                .as_ref()
                .expect("returned")
                .remaining()
                .value(),
            stages: broker.counters(),
            chargeable_messages: broker.network().meter().snapshot().chargeable_messages(),
        };
        self.epoch += 1;
        Ok(result)
    }
}

#[test]
fn incremental_epochs_release_the_snapshot_paths_bits() {
    // Heavy duplicates, ±0, ±∞ and subnormals.
    const POOL: [f64; 12] = [
        f64::NEG_INFINITY,
        -3.5,
        -0.0,
        0.0,
        5e-324,
        -5e-324,
        2.0e-310,
        1.0,
        7.0,
        7.0,
        7.0,
        f64::INFINITY,
    ];
    let record = |i: u64, ts: i64| prc::data::record::PollutionRecord {
        timestamp: prc::data::time::Timestamp(ts),
        sensor_id: i as u32,
        ozone: POOL[(i * 7 + i / 5) as usize % POOL.len()],
        particulate_matter: 0.0,
        carbon_monoxide: POOL[(i * 5 + i / 3) as usize % POOL.len()],
        sulfur_dioxide: 0.0,
        nitrogen_dioxide: 0.0,
    };
    // (records to ingest, seconds skipped before them) per epoch; records
    // arrive three per two seconds, so a full window holds ~900.
    let schedule: [(u64, i64); 10] = [
        (1_200, 0),
        // Nothing new between two epochs.
        (0, 0),
        (150, 0),
        // A burst three windows long: most of it is evicted before any
        // epoch sees it.
        (2_500, 0),
        (0, 0),
        // A gap longer than the window, then fewer records than nodes:
        // `k` drops from 8 to 5, then moves to 7.
        (5, 700),
        (2, 0),
        // Back to eight nodes.
        (300, 0),
        (77, 1),
        (0, 0),
    ];
    for index in [AirQualityIndex::Ozone, AirQualityIndex::CarbonMonoxide] {
        let config = MonitorConfig {
            query: RangeQuery::new(0.0, 7.0).unwrap(),
            accuracy: Accuracy::new(0.1, 0.6).unwrap(),
            index,
            window_seconds: 600,
            nodes: 8,
            session_budget: Epsilon::new(1e6).unwrap(),
            seed: 17,
        };
        let mut monitor = ContinuousMonitor::new(config);
        let mut replay = SnapshotReplay {
            config,
            window: SlidingWindow::new(config.window_seconds),
            accountant: Some(BudgetAccountant::new(config.session_budget)),
            index_cache: None,
            epoch: 0,
        };
        // An empty window is refused on both paths.
        assert!(matches!(monitor.answer_epoch(), Err(CoreError::NoSamples)));
        assert!(matches!(replay.answer_epoch(), Err(CoreError::NoSamples)));
        let (mut seq, mut ts) = (0u64, 0i64);
        let (mut node_counts, mut sampled) = (Vec::new(), Vec::new());
        for (epoch, &(count, skip)) in schedule.iter().enumerate() {
            ts += skip;
            let records: Vec<_> = (0..count)
                .map(|_| {
                    // Two records per timestamp now and then.
                    ts += i64::from(seq % 3 != 0);
                    seq += 1;
                    record(seq, ts)
                })
                .collect();
            monitor.ingest(records.iter().copied());
            replay.window.ingest_all(records);
            let ours = monitor.answer_epoch().unwrap();
            let theirs = replay.answer_epoch().unwrap();
            assert_eq!(ours, theirs, "{index:?} epoch {epoch}");
            assert_eq!(
                ours.answer.value.to_bits(),
                theirs.answer.value.to_bits(),
                "{index:?} epoch {epoch}"
            );
            assert_eq!(
                ours.budget_remaining.to_bits(),
                theirs.budget_remaining.to_bits()
            );
            assert_eq!(ours.window_size, replay.window.len());
            node_counts.push(config.nodes.min(ours.window_size));
            sampled.push(ours.answer.plan.probability);
        }
        assert!(node_counts.contains(&5) && node_counts.contains(&7));
        assert!(node_counts.contains(&8));
        // Partial sampling, so the released bits depend on which node
        // holds which values, not only on the window's contents.
        assert!(sampled.iter().any(|&p| p < 0.5), "{sampled:?}");
    }
}
