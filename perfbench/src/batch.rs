//! `batch`: `DataBroker::answer_batch` on 64-request batches over a
//! 16-node × 25,000-value network with the answer cache on.
//!
//! This shape exercises rate tiering, duplicate deferral, the runtime's
//! estimate fan-out and the sorted-batch sweep. At k = 16 per-request
//! station walks are cheap, so `market`'s hot spots do little here.

use std::collections::HashSet;
use std::time::Instant;

use prc_core::broker::{BatchReport, DataBroker};
use prc_core::query::QueryRequest;
use prc_data::partition::{partition_values, PartitionStrategy};
use prc_dp::budget::Epsilon;
use prc_net::network::FlatNetwork;

use crate::common::{reuse_guard, Args, Broker, Layers, Oracle, Probe, Window, BUDGET_CAP};
use crate::episodes::{self, fold, Call, Traced, Workload, FAILED_BITS};
use crate::gen::{self, RequestStream};
use crate::trace::{self, Tracer};
use crate::Outcome;

/// Sensor nodes in the network.
pub const NODES: usize = 16;
/// Values per node.
pub const PER_NODE: usize = 25_000;
/// Requests per `answer_batch` call.
pub const BATCH: usize = 64;
/// Batches in one episode.
const BATCHES: usize = 2_048;
const WARMUP_BATCHES: usize = 16;

/// The generated inputs of one seed.
struct Batches {
    seed: u64,
    values: Vec<f64>,
    warmup: Vec<Vec<QueryRequest>>,
    /// Every batch of an episode, with each request's exact count.
    batches: Vec<(Vec<QueryRequest>, Vec<u32>)>,
}

/// Identifies one released answer: a cache hit repeats an earlier
/// answer's range, demand and value bits exactly.
type Release = (u64, u64, u64, u64, u64);

/// A broker ready to serve, with the `ε′` committed so far. An answer
/// is fresh unless it repeats an earlier release; the batch engine
/// commits in rate-tier order, so the sum matches the accountant's up to
/// rounding.
struct Served {
    broker: Broker,
    eps: f64,
    seen: HashSet<Release>,
    net_build_ms: f64,
}

impl Served {
    /// Adds the `ε′` of every answer released for the first time.
    fn track(&mut self, batch: &[QueryRequest], report: &BatchReport) {
        for (request, result) in batch.iter().zip(&report.answers) {
            if let Ok(answer) = result {
                let key = (
                    request.query.lower().to_bits(),
                    request.query.upper().to_bits(),
                    request.accuracy.alpha().to_bits(),
                    request.accuracy.delta().to_bits(),
                    answer.value.to_bits(),
                );
                if self.seen.insert(key) {
                    self.eps += answer.plan.effective_epsilon.value();
                }
            }
        }
    }

    fn spent_matches(&self) -> bool {
        let sum = self.eps;
        self.broker
            .accountant()
            .is_some_and(|a| (a.spent().value() - sum).abs() <= 1e-9 * sum.max(1.0))
    }
}

fn bits(report: &BatchReport) -> u64 {
    report.answers.iter().fold(0, |digest, r| {
        fold(
            digest,
            r.as_ref().map_or(FAILED_BITS, |a| a.value.to_bits()),
        )
    })
}

fn next_batch(stream: &mut RequestStream) -> Vec<QueryRequest> {
    stream
        .take(BATCH)
        .iter()
        .map(|draw| draw.request(1.0))
        .collect()
}

/// Runs `batch`.
pub fn run(args: &Args) -> Outcome {
    let values = gen::ozone_values(args.seed, NODES * PER_NODE);
    let oracle = Oracle::new(&values);
    let mut stream = RequestStream::new(args.seed);
    let sweep = gen::tier_sweep(stream.top())
        .iter()
        .map(|d| d.request(1.0))
        .collect();
    let warmup = std::iter::once(sweep)
        .chain((1..WARMUP_BATCHES).map(|_| next_batch(&mut stream)))
        .collect();
    let batches = (0..BATCHES)
        .map(|_| {
            let batch = next_batch(&mut stream);
            let exact = batch.iter().map(|r| oracle.count(r.query) as u32).collect();
            (batch, exact)
        })
        .collect();
    let workload = Batches {
        seed: args.seed,
        values,
        warmup,
        batches,
    };
    episodes::run(&workload, args)
}

impl Workload for Batches {
    type Server = Served;

    fn calls(&self) -> usize {
        self.batches.len()
    }

    /// Network, broker, answer cache and budget, then the warm-up
    /// batches.
    fn setup(&self) -> Served {
        let start = Instant::now();
        let network = FlatNetwork::from_partitions(
            partition_values(&self.values, NODES, PartitionStrategy::RoundRobin),
            self.seed,
        );
        let net_build_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut broker = DataBroker::new(network, self.seed);
        broker.enable_answer_cache(Box::new(reuse_guard(self.values.len())));
        broker.set_privacy_budget(Epsilon::new(BUDGET_CAP).expect("positive cap"));
        let mut served = Served {
            broker,
            eps: 0.0,
            seen: HashSet::new(),
            net_build_ms,
        };
        for batch in &self.warmup {
            let report = served.broker.answer_batch(batch);
            assert!(
                report.answers.iter().all(Result::is_ok),
                "warm-up batches are served"
            );
            served.track(batch, &report);
        }
        served
    }

    fn call(&self, served: &mut Served, k: usize, window: Option<&mut Window>) -> Call {
        let (batch, exact) = &self.batches[k];
        let start = Instant::now();
        let report = served.broker.answer_batch(batch);
        let took = start.elapsed();
        let eps_before = served.eps;
        served.track(batch, &report);
        if let Some(window) = window {
            let n = self.values.len() as f64;
            for ((request, result), exact) in batch.iter().zip(&report.answers).zip(exact) {
                if let Ok(answer) = result {
                    let within =
                        (answer.value - f64::from(*exact)).abs() <= request.accuracy.alpha() * n;
                    window.release(within, request.accuracy.delta());
                }
            }
            window.eps += served.eps - eps_before;
        }
        Call {
            took,
            attempted: batch.len() as u64,
            answers: report.released().count() as u64,
            bits: bits(&report),
        }
    }

    fn finish(&self, served: &Served, window: Option<&mut Window>) -> bool {
        if let Some(window) = window {
            window.add_life(&served.broker);
        }
        served.spent_matches()
    }

    /// Spans cover whole `answer_batch` calls only; the layers below show
    /// through counter movement.
    fn traced(&self, outcome: &mut Outcome) -> Traced {
        let mut served = self.setup();
        let mut layers = Layers {
            net_build_ms: served.net_build_ms,
            ..Layers::default()
        };
        let before = Probe::of(&served.broker);
        let mut tracer = Tracer::new();
        let mut digest = 0;
        for (k, (batch, _)) in self.batches.iter().enumerate() {
            tracer.set_request(k as u32);
            let broker = &mut served.broker;
            let report = tracer.span("batch", || broker.answer_batch(batch));
            served.track(batch, &report);
            layers.rate_tiers += report.stats.rate_tiers;
            outcome.attempted += batch.len() as u64;
            outcome.failed += (batch.len() - report.released().count()) as u64;
            digest = fold(digest, bits(&report));
        }
        layers.add(&before, &Probe::of(&served.broker));
        outcome.check(
            "traced accountant spent equals the committed plans' sum",
            served.spent_matches(),
        );
        let root_ns = trace::total_duration(tracer.spans(), "batch");
        Traced {
            digest,
            root_ns,
            layers,
            tracer,
        }
    }
}
