//! `market` and `drift`: priced `DataBroker::answer_as` streams over a
//! 1024-node `FlatNetwork` holding ~1M ozone values.
//!
//! `market` is the read-mostly trading loop: after warm-up the network
//! is sampled enough for every tier, so per-request work dominates.
//! `drift` tightens every tier's `α` by 3% every 1000 requests, so a
//! collection round, an index delta append and cache eviction recur
//! throughout. A drift episode is 32 steps, so sampling never reaches
//! 100%; the next episode starts again from a fresh set-up.

use std::time::Instant;

use prc_core::broker::DataBroker;
use prc_core::pipeline::PricedAnswer;
use prc_core::query::QueryRequest;
use prc_core::CoreError;
use prc_data::partition::{partition_values, PartitionStrategy};
use prc_dp::budget::Epsilon;
use prc_net::network::FlatNetwork;

use crate::common::{
    check_estimate, pricing_engine, reuse_guard, staged, Args, Broker, Layers, Oracle, Probe,
    Window, BUDGET_CAP, BUYER_NAMES, STAGES,
};
use crate::episodes::{self, fold, Call, Traced, Workload, FAILED_BITS};
use crate::gen::{self, Draw, RequestStream, DRIFT_EPISODE_REQUESTS};
use crate::trace::{self, Tracer};
use crate::Outcome;

/// Sensor nodes in the network.
pub const NODES: usize = 1024;
/// Values held across the network.
pub const VALUES: usize = 1 << 20;
/// Priced requests in one `market` episode.
const MARKET_REQUESTS: usize = 65_536;
const MARKET_WARMUP: usize = 4_096;
const DRIFT_WARMUP: usize = 1_000;

/// The generated inputs of one seed.
struct Market {
    seed: u64,
    values: Vec<f64>,
    warmup: Vec<Draw>,
    /// Every request of an episode, with its buyer and exact count.
    requests: Vec<(QueryRequest, usize, u32)>,
}

/// A broker ready to serve, with the `ε′` it has committed so far,
/// summed in commit order.
struct Served {
    broker: Broker,
    eps: f64,
    net_build_ms: f64,
}

impl Served {
    /// A call's `ε′`: a released answer that did not come from the cache
    /// committed its plan's effective budget.
    fn committed(&mut self, result: &Result<PricedAnswer, CoreError>, hits: u64) -> Option<f64> {
        match result {
            Ok(priced) if self.broker.counters().cache_hits == hits => {
                let eps = priced.answer.plan.effective_epsilon.value();
                self.eps += eps;
                Some(eps)
            }
            _ => None,
        }
    }

    fn spent_matches(&self) -> bool {
        self.broker
            .accountant()
            .is_some_and(|a| a.spent().value().to_bits() == self.eps.to_bits())
    }
}

fn bits(result: &Result<PricedAnswer, CoreError>) -> u64 {
    result
        .as_ref()
        .map_or(FAILED_BITS, |priced| priced.answer.value.to_bits())
}

/// Runs `market` (`drift == false`) or `drift`.
pub fn run(args: &Args, drift: bool) -> Outcome {
    let values = gen::ozone_values(args.seed, VALUES);
    let oracle = Oracle::new(&values);
    let mut stream = RequestStream::new(args.seed);
    let warmup = stream.warmup(if drift { DRIFT_WARMUP } else { MARKET_WARMUP });
    let count = if drift {
        DRIFT_EPISODE_REQUESTS as usize
    } else {
        MARKET_REQUESTS
    };
    let requests = (0..count)
        .map(|k| {
            let draw = stream.next_draw();
            let scale = if drift {
                gen::drift_scale(k as u64)
            } else {
                1.0
            };
            (
                draw.request(scale),
                draw.buyer,
                oracle.count(draw.query) as u32,
            )
        })
        .collect();
    let market = Market {
        seed: args.seed,
        values,
        warmup,
        requests,
    };
    episodes::run(&market, args)
}

impl Workload for Market {
    type Server = Served;

    fn calls(&self) -> usize {
        self.requests.len()
    }

    /// Network, broker, pricing engine, answer cache and budget, then the
    /// warm-up requests.
    fn setup(&self) -> Served {
        let start = Instant::now();
        let network = FlatNetwork::from_partitions(
            partition_values(&self.values, NODES, PartitionStrategy::RoundRobin),
            self.seed,
        );
        let net_build_ms = start.elapsed().as_secs_f64() * 1e3;
        let n = self.values.len();
        let mut broker = DataBroker::new(network, self.seed);
        broker.enable_pricing(Box::new(pricing_engine(n)));
        broker.enable_answer_cache(Box::new(reuse_guard(n)));
        broker.set_privacy_budget(Epsilon::new(BUDGET_CAP).expect("positive cap"));
        let mut served = Served {
            broker,
            eps: 0.0,
            net_build_ms,
        };
        for draw in &self.warmup {
            let hits = served.broker.counters().cache_hits;
            let result = served
                .broker
                .answer_as(BUYER_NAMES[draw.buyer], &draw.request(1.0));
            assert!(result.is_ok(), "warm-up requests are served");
            served.committed(&result, hits);
        }
        served
    }

    fn call(&self, served: &mut Served, k: usize, window: Option<&mut Window>) -> Call {
        let (request, buyer, exact) = &self.requests[k];
        let hits = served.broker.counters().cache_hits;
        let start = Instant::now();
        let result = served.broker.answer_as(BUYER_NAMES[*buyer], request);
        let took = start.elapsed();
        let eps = served.committed(&result, hits);
        if let (Some(window), Ok(priced)) = (window, &result) {
            let error = (priced.answer.value - f64::from(*exact)).abs();
            let within = error <= request.accuracy.alpha() * self.values.len() as f64;
            window.release(within, request.accuracy.delta());
            window.eps += eps.unwrap_or(0.0);
        }
        Call {
            took,
            attempted: 1,
            answers: u64::from(result.is_ok()),
            bits: bits(&result),
        }
    }

    fn finish(&self, served: &Served, window: Option<&mut Window>) -> bool {
        if let Some(window) = window {
            window.add_life(&served.broker);
        }
        served.spent_matches()
    }

    fn traced(&self, outcome: &mut Outcome) -> Traced {
        let mut served = self.setup();
        let mut layers = Layers {
            net_build_ms: served.net_build_ms,
            ..Layers::default()
        };
        let before = Probe::of(&served.broker);
        let mut tracer = Tracer::new();
        let (mut digest, mut estimates, mut estimates_ok) = (0, 0, true);
        for (k, (request, buyer, _)) in self.requests.iter().enumerate() {
            tracer.set_request(k as u32);
            let hits = served.broker.counters().cache_hits;
            let mut estimated = None;
            let result = staged(
                &mut served.broker,
                Some(BUYER_NAMES[*buyer]),
                request,
                &mut tracer,
                &mut estimated,
            );
            served.committed(&result, hits);
            estimates_ok &= check_estimate(&served.broker, estimated, &mut estimates);
            outcome.attempted += 1;
            outcome.failed += u64::from(result.is_err());
            digest = fold(digest, bits(&result));
        }
        layers.add(&before, &Probe::of(&served.broker));
        outcome.check(
            "traced accountant spent equals the committed plans' sum",
            served.spent_matches(),
        );
        outcome.check(
            "every 64th traced estimate equals the direct scan",
            estimates_ok,
        );
        let spans = tracer.spans();
        let named = trace::by_name(spans);
        let attributed: u64 = STAGES
            .iter()
            .chain(["call"].iter())
            .map(|name| named.get(name).map_or(0, |t| t.1))
            .sum();
        let root_ns = trace::total_duration(spans, "call");
        outcome.check(
            "stage self times plus the unattributed rest equal the traced call time",
            attributed == root_ns,
        );
        Traced {
            digest,
            root_ns,
            layers,
            tracer,
        }
    }
}
