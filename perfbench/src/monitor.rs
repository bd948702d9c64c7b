//! `monitor`: `ContinuousMonitor::answer_epoch` over a CityPulse stream
//! at 1-s cadence, with a 2-h window (7,200 records) over 64 nodes and
//! 600 new records per epoch.
//!
//! Every epoch snapshots the window, builds a network and a broker from
//! scratch and runs a full collection with a cold plan cache, so this is
//! the workload that times `prc-data` and network construction. The
//! window is kept small enough that an epoch's data stays in the CPU's
//! own caches: with a 12-h window over 256 nodes, memory traffic from
//! other load on a shared machine moved `call_p99_us` by up to 37%
//! between runs.

use std::time::Instant;

use prc_core::broker::{DataBroker, IndexCacheHandle, PrivateAnswer};
use prc_core::monitor::{ContinuousMonitor, MonitorConfig};
use prc_core::query::{Accuracy, QueryRequest};
use prc_core::CoreError;
use prc_data::partition::PartitionStrategy;
use prc_data::record::{AirQualityIndex, PollutionRecord};
use prc_data::stream::SlidingWindow;
use prc_dp::budget::{BudgetAccountant, Epsilon};
use prc_net::network::FlatNetwork;

use crate::common::{check_estimate, staged, Args, Layers, Probe, Window};
use crate::episodes::{self, fold, Call, Traced, Workload, FAILED_BITS};
use crate::gen::{self, RangePool};
use crate::trace::{self, Tracer};
use crate::Outcome;

/// Sensor nodes each epoch's network spreads the window over.
pub const NODES: usize = 64;
/// Window span, s; at 1-s cadence the window holds this many records.
pub const WINDOW_SECONDS: i64 = 2 * 3_600;
/// Records arriving between two epochs.
pub const PER_EPOCH: u64 = 600;
/// Epochs in one episode.
const EPOCHS: usize = 1_000;
const WARMUP_EPOCHS: usize = 8;
/// The session budget: about five times what an episode spends (some
/// 12.4 ε′ over its 1,008 epochs), so no epoch is refused, and close
/// enough to the spend that `budget_remaining()` keeps the precision of
/// the accountant's own sum.
const SESSION_BUDGET: f64 = 64.0;

fn config(seed: u64) -> MonitorConfig {
    MonitorConfig {
        query: RangePool::new(seed).top(),
        accuracy: Accuracy::new(0.05, 0.8).expect("valid accuracy"),
        index: AirQualityIndex::Ozone,
        window_seconds: WINDOW_SECONDS,
        nodes: NODES,
        session_budget: Epsilon::new(SESSION_BUDGET).expect("positive budget"),
        seed,
    }
}

/// The endless record stream, and exact counts of the standing query
/// over any stretch of it.
struct Stream {
    config: MonitorConfig,
    day: Vec<PollutionRecord>,
    /// `inside[r]`: records of `day[..r]` inside the standing query.
    inside: Vec<u64>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let config = config(seed);
        let day = gen::citypulse_day(seed);
        let mut inside = vec![0u64; day.len() + 1];
        for (r, record) in day.iter().enumerate() {
            inside[r + 1] = inside[r] + u64::from(config.query.contains(record.ozone));
        }
        Stream {
            config,
            day,
            inside,
        }
    }

    fn records(&self, from: u64, count: u64) -> impl Iterator<Item = PollutionRecord> + '_ {
        (from..from + count).map(|g| gen::stream_record(&self.day, g))
    }

    /// Records of the stream before `g` inside the standing query.
    fn inside_before(&self, g: u64) -> u64 {
        let d = self.day.len() as u64;
        (g / d) * self.inside[self.day.len()] + self.inside[(g % d) as usize]
    }

    /// Exact count over the window that ends before record `end`.
    fn exact(&self, end: u64) -> u64 {
        let start = end.saturating_sub(WINDOW_SECONDS as u64);
        self.inside_before(end) - self.inside_before(start)
    }
}

/// A monitor fed from the stream, with what it has released so far.
struct Fed {
    monitor: ContinuousMonitor,
    next: u64,
    eps: f64,
    messages: u64,
    answers: u64,
}

impl Fed {
    fn ingest(&mut self, stream: &Stream, count: u64) {
        self.monitor.ingest(stream.records(self.next, count));
        self.next += count;
    }
}

/// Runs `monitor`.
pub fn run(args: &Args) -> Outcome {
    episodes::run(&Stream::new(args.seed), args)
}

impl Workload for Stream {
    type Server = Fed;

    fn calls(&self) -> usize {
        EPOCHS
    }

    /// The monitor with a full window, after the warm-up epochs.
    fn setup(&self) -> Fed {
        let mut fed = Fed {
            monitor: ContinuousMonitor::new(self.config),
            next: 0,
            eps: 0.0,
            messages: 0,
            answers: 0,
        };
        fed.ingest(self, WINDOW_SECONDS as u64);
        for k in 0..WARMUP_EPOCHS {
            let call = self.call(&mut fed, k, None);
            assert_eq!(call.answers, 1, "warm-up epochs are served");
        }
        fed
    }

    /// Ingests the epoch's records (untimed), then times `answer_epoch`.
    fn call(&self, fed: &mut Fed, _: usize, window: Option<&mut Window>) -> Call {
        fed.ingest(self, PER_EPOCH);
        let start = Instant::now();
        let result = fed.monitor.answer_epoch();
        let took = start.elapsed();
        if let Ok(epoch) = &result {
            fed.eps += epoch.answer.plan.effective_epsilon.value();
            fed.messages += epoch.chargeable_messages;
            fed.answers += 1;
            if let Some(window) = window {
                let exact = self.exact(fed.next) as f64;
                let n = epoch.window_size as f64;
                let within = (epoch.answer.value - exact).abs() <= self.config.accuracy.alpha() * n;
                window.release(
                    within && epoch.window_size == WINDOW_SECONDS as usize,
                    self.config.accuracy.delta(),
                );
                window.eps += epoch.answer.plan.effective_epsilon.value();
            }
        }
        Call {
            took,
            attempted: 1,
            answers: u64::from(result.is_ok()),
            bits: result.map_or(FAILED_BITS, |epoch| epoch.answer.value.to_bits()),
        }
    }

    /// The session budget left must be the budget minus the released plans'
    /// `ε′`, summed in commit order.
    fn finish(&self, fed: &Fed, window: Option<&mut Window>) -> bool {
        if let Some(window) = window {
            window.messages += fed.messages;
            window.life_answers += fed.answers;
        }
        let expected = (SESSION_BUDGET - fed.eps).max(0.0);
        fed.monitor.budget_remaining().value().to_bits() == expected.to_bits()
    }

    fn traced(&self, outcome: &mut Outcome) -> Traced {
        let mut replay = Replay::new(self, self.config);
        let mut layers = Layers::default();
        let mut tracer = Tracer::new();
        let mut digest = 0;
        for e in 0..EPOCHS {
            tracer.set_request(e as u32);
            replay.ingest(self, PER_EPOCH, &mut tracer);
            let result = replay.epoch(&mut tracer, &mut layers);
            outcome.attempted += 1;
            outcome.failed += u64::from(result.is_err());
            digest = fold(
                digest,
                result.map_or(FAILED_BITS, |answer| answer.value.to_bits()),
            );
        }
        layers.window_records = replay.window.len() as u64;
        layers.net_build_ms = trace::total_duration(tracer.spans(), "net.build") as f64 / 1e6;
        outcome.check(
            "every 64th traced estimate equals the direct scan",
            replay.estimates_ok,
        );
        outcome.check(
            "traced session spent equals the committed plans' sum",
            replay
                .accountant
                .as_ref()
                .is_some_and(|a| a.spent().value().to_bits() == replay.eps.to_bits()),
        );
        let root_ns = trace::total_duration(tracer.spans(), "monitor.epoch");
        Traced {
            digest,
            root_ns,
            layers,
            tracer,
        }
    }
}

/// `answer_epoch` rebuilt from its public parts, so each part can be
/// timed: the window, its snapshot, network and broker construction, the
/// stages, and the hand-back of the session accountant and index.
struct Replay {
    config: MonitorConfig,
    window: SlidingWindow,
    accountant: Option<BudgetAccountant>,
    index_cache: Option<IndexCacheHandle>,
    epoch: u64,
    next: u64,
    eps: f64,
    estimates: u64,
    estimates_ok: bool,
}

impl Replay {
    fn new(stream: &Stream, config: MonitorConfig) -> Replay {
        let mut replay = Replay {
            config,
            window: SlidingWindow::new(config.window_seconds),
            accountant: Some(BudgetAccountant::new(config.session_budget)),
            index_cache: None,
            epoch: 0,
            next: 0,
            eps: 0.0,
            estimates: 0,
            estimates_ok: true,
        };
        let mut warmup = Tracer::new();
        replay.ingest(stream, WINDOW_SECONDS as u64, &mut warmup);
        for _ in 0..WARMUP_EPOCHS {
            replay.ingest(stream, PER_EPOCH, &mut warmup);
            replay
                .epoch(&mut warmup, &mut Layers::default())
                .expect("warm-up epochs are served");
        }
        replay
    }

    fn ingest(&mut self, stream: &Stream, count: u64, tracer: &mut Tracer) {
        let records = stream.records(self.next, count);
        let window = &mut self.window;
        tracer.span("data.ingest", || window.ingest_all(records));
        self.next += count;
    }

    fn epoch(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<PrivateAnswer, CoreError> {
        tracer.enter("monitor.epoch");
        let out = self.epoch_parts(tracer, layers);
        tracer.exit();
        out
    }

    fn epoch_parts(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<PrivateAnswer, CoreError> {
        let config = self.config;
        let snapshot = tracer.span("data.snapshot", || self.window.snapshot());
        let nodes = config.nodes.min(snapshot.len());
        let epoch = self.epoch;
        let network = tracer.span("net.build", || {
            FlatNetwork::from_dataset(
                &snapshot,
                config.index,
                nodes,
                PartitionStrategy::RoundRobin,
                config.seed ^ epoch,
            )
        });
        let accountant = self
            .accountant
            .take()
            .expect("the session accountant is home");
        let index_cache = self.index_cache.take();
        let mut broker = tracer.span("broker.new", || {
            let mut broker = DataBroker::new(network, config.seed ^ (epoch << 17));
            broker.install_accountant(accountant);
            if let Some(handle) = index_cache {
                broker.install_index_cache(handle);
            }
            broker
        });
        let before = Probe::of(&broker);
        let request = QueryRequest::new(config.query, config.accuracy);
        let mut estimated = None;
        let result = staged(&mut broker, None, &request, tracer, &mut estimated);
        self.estimates_ok &= check_estimate(&broker, estimated, &mut self.estimates);
        layers.add(&before, &Probe::of(&broker));
        let (accountant, index_cache) = tracer.span("broker.handoff", || {
            (broker.take_accountant(), broker.take_index_cache())
        });
        self.accountant = accountant;
        self.index_cache = index_cache;
        let answer = result?.answer;
        self.eps += answer.plan.effective_epsilon.value();
        self.epoch += 1;
        Ok(answer)
    }
}
