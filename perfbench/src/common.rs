//! What every workload shares: the broker set-up pieces, the staged
//! (traced) request path, the exact-count oracle, counter probes, and the
//! metric lists both modes print.

use prc_core::broker::{DataBroker, StageCounters};
use prc_core::estimator::{RangeCountEstimator, RankCounting};
use prc_core::pipeline::stages::{Admission, Admit, Collect, Estimate, Perturb, Reserve, Settle};
use prc_core::pipeline::PricedAnswer;
use prc_core::query::{QueryRequest, RangeQuery};
use prc_core::CoreError;
use prc_net::network::{CostSnapshot, FlatNetwork};
use prc_pricing::engine::PostedPriceEngine;
use prc_pricing::functions::InverseVariancePricing;
use prc_pricing::reuse::PostedPriceReuse;
use prc_pricing::variance::ChebyshevVariance;
use prc_runtime::{Runtime, RuntimeCounters};

use crate::json::{Better, Metric};
use crate::trace::{self, Span, Tracer};
use crate::Outcome;

/// The broker every workload serves from.
pub type Broker = DataBroker<RankCounting, FlatNetwork>;

/// A privacy cap no run comes near, so the accountant never refuses.
pub const BUDGET_CAP: f64 = 1e6;

/// Buyer names the priced stream rotates through.
pub const BUYER_NAMES: [&str; crate::gen::BUYERS] = [
    "buyer-0", "buyer-1", "buyer-2", "buyer-3", "buyer-4", "buyer-5", "buyer-6", "buyer-7",
];

/// Every 64th traced Estimate is checked against the direct scan.
pub const ESTIMATE_CHECK_EVERY: u64 = 64;

/// The command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds an untraced run measures for.
    pub seconds: f64,
    /// Run the traced composition instead of the public entry points.
    pub trace: bool,
    /// Directory the traced run writes its spans to.
    pub spans_dir: Option<std::path::PathBuf>,
}

/// A posted-price engine over a population of `n`.
pub fn pricing_engine(
    n: usize,
) -> PostedPriceEngine<InverseVariancePricing<ChebyshevVariance>, ChebyshevVariance> {
    let model = ChebyshevVariance::new(n);
    PostedPriceEngine::new(InverseVariancePricing::new(1e6, model), model)
}

/// The answer-cache guard matching [`pricing_engine`].
pub fn reuse_guard(
    n: usize,
) -> PostedPriceReuse<InverseVariancePricing<ChebyshevVariance>, ChebyshevVariance> {
    let model = ChebyshevVariance::new(n);
    PostedPriceReuse::new(InverseVariancePricing::new(1e6, model), model)
}

/// Exact range counts from the benchmark's own sorted copy of the data.
#[derive(Debug, Clone)]
pub struct Oracle {
    sorted: Vec<f64>,
}

impl Oracle {
    /// An oracle over `values`.
    pub fn new(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Oracle { sorted }
    }

    /// Values inside the closed range.
    pub fn count(&self, q: RangeQuery) -> usize {
        self.sorted.partition_point(|&v| v <= q.upper())
            - self.sorted.partition_point(|&v| v < q.lower())
    }
}

/// A memory figure of this process from `/proc/self/status`, in MB:
/// `VmRSS` (resident now) or `VmHWM` (peak resident so far).
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    kb / 1024.0
}

/// Outcomes over the deterministic window, the first episode, so these
/// figures repeat exactly per seed.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Answers released in the window.
    pub answers: u64,
    /// Of those, answers within `α·n` of the exact count.
    pub covered: u64,
    /// `ε′` committed in the window.
    pub eps: f64,
    /// Chargeable messages over the server's life (warm-up included).
    pub messages: u64,
    /// Answers released over the server's life (warm-up included).
    pub life_answers: u64,
    /// Peak RSS at the end of the window, less the RSS the inputs held
    /// before the first set-up, MB.
    pub peak_rss_mb: f64,
    /// Lowest `δ` demanded in the window.
    pub min_delta: f64,
}

impl Window {
    /// Records one released answer, demanded at confidence `delta`.
    pub fn release(&mut self, within: bool, delta: f64) {
        self.answers += 1;
        self.covered += u64::from(within);
        self.min_delta = if self.answers == 1 {
            delta
        } else {
            self.min_delta.min(delta)
        };
    }

    /// Adds a broker's life-long chargeable messages and released answers.
    pub fn add_life(&mut self, broker: &Broker) {
        self.messages += broker.network().meter().snapshot().chargeable_messages();
        self.life_answers += broker.counters().answers_released;
    }

    /// The share of answers within `α·n`.
    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.answers.max(1) as f64
    }
}

/// The nine end-to-end metrics of an untraced run: the timings as the
/// runner measured them, the rest from the run's totals or its window.
pub fn end_to_end(
    answers_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    calls_per_episode: usize,
    setup_s: f64,
    outcome: &Outcome,
    window: &Window,
) -> Vec<Metric> {
    let m = |name, unit, better, value| Metric {
        name,
        unit,
        better,
        value,
        samples: None,
    };
    let served = outcome.attempted - outcome.failed;
    vec![
        m("answers_per_s", "1/s", Better::Higher, answers_per_s),
        Metric {
            samples: Some(calls_per_episode),
            ..m("call_p50_us", "us", Better::Lower, p50_us)
        },
        Metric {
            samples: Some(calls_per_episode),
            ..m("call_p99_us", "us", Better::Lower, p99_us)
        },
        m("setup_s", "s", Better::Lower, setup_s),
        m(
            "served_frac",
            "frac",
            Better::Higher,
            served as f64 / outcome.attempted.max(1) as f64,
        ),
        m(
            "msgs_per_answer",
            "msgs",
            Better::Lower,
            window.messages as f64 / window.life_answers.max(1) as f64,
        ),
        m(
            "eps_per_answer",
            "eps",
            Better::Lower,
            window.eps / window.answers.max(1) as f64,
        ),
        m("coverage", "frac", Better::Higher, window.coverage()),
        m("peak_rss_mb", "MB", Better::Lower, window.peak_rss_mb),
    ]
}

/// A point-in-time reading of every counter a broker exposes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// The broker's stage counters.
    pub stages: StageCounters,
    /// The network's cost meter.
    pub meter: CostSnapshot,
    /// The shared runtime pool's counters.
    pub runtime: RuntimeCounters,
    /// `ε` committed by the accountant.
    pub eps_spent: f64,
    /// Accountant commits.
    pub eps_operations: u64,
    /// Sales in the pricing ledger.
    pub ledger_records: u64,
    /// Answers in the answer cache.
    pub cache_entries: u64,
}

impl Probe {
    /// Reads `broker`'s counters.
    pub fn of(broker: &Broker) -> Probe {
        Probe {
            stages: broker.counters(),
            meter: broker.network().meter().snapshot(),
            runtime: Runtime::global().counters(),
            eps_spent: broker.accountant().map_or(0.0, |a| a.spent().value()),
            eps_operations: broker.accountant().map_or(0, |a| a.operations()),
            ledger_records: broker.pricing().map_or(0, |p| p.ledger().len() as u64),
            cache_entries: broker.cached_answers() as u64,
        }
    }
}

/// Counter movement summed over one or more `(before, after)` probes.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Summed stage-counter increments.
    pub stages: StageCounters,
    /// Summed meter increments.
    pub meter: CostSnapshot,
    /// Summed runtime-counter increments.
    pub runtime: RuntimeCounters,
    /// Summed `ε` committed.
    pub eps_spent: f64,
    /// Summed accountant commits.
    pub eps_operations: u64,
    /// Gauges from the last `after` probe.
    pub last: Probe,
    /// Rate tiers over all batches.
    pub rate_tiers: u64,
    /// Time spent building networks, ms.
    pub net_build_ms: f64,
    /// Records in the monitor's window at the end.
    pub window_records: u64,
    /// Traced calls' time over untraced calls' time, minus one.
    pub overhead_frac: f64,
}

impl Layers {
    /// Adds the movement between two probes of one broker.
    pub fn add(&mut self, before: &Probe, after: &Probe) {
        let (a, b) = (&after.stages, &before.stages);
        let s = &mut self.stages;
        s.collection_rounds += a.collection_rounds - b.collection_rounds;
        s.samples_collected += a.samples_collected - b.samples_collected;
        s.cache_hits += a.cache_hits - b.cache_hits;
        s.cache_misses += a.cache_misses - b.cache_misses;
        s.answers_released += a.answers_released - b.answers_released;
        s.index_builds += a.index_builds - b.index_builds;
        s.indexed_estimates += a.indexed_estimates - b.indexed_estimates;
        s.delta_appends += a.delta_appends - b.delta_appends;
        s.compactions += a.compactions - b.compactions;
        s.engine_hits += a.engine_hits - b.engine_hits;
        s.plan_cache_hits += a.plan_cache_hits - b.plan_cache_hits;
        s.gallop_steps += a.gallop_steps - b.gallop_steps;
        s.settlements += a.settlements - b.settlements;
        s.budget_rollbacks += a.budget_rollbacks - b.budget_rollbacks;
        let (a, b) = (&after.meter, &before.meter);
        let m = &mut self.meter;
        m.messages += a.messages - b.messages;
        m.free_messages += a.free_messages - b.free_messages;
        m.samples += a.samples - b.samples;
        m.bytes += a.bytes - b.bytes;
        m.lost_messages += a.lost_messages - b.lost_messages;
        let (a, b) = (&after.runtime, &before.runtime);
        let r = &mut self.runtime;
        r.tasks_run += a.tasks_run - b.tasks_run;
        r.chunks += a.chunks - b.chunks;
        r.sequential_fallbacks += a.sequential_fallbacks - b.sequential_fallbacks;
        self.eps_spent += after.eps_spent - before.eps_spent;
        self.eps_operations += after.eps_operations - before.eps_operations;
        self.last = *after;
    }
}

/// Stage span names, in `QuerySession::run`'s order.
pub const STAGES: [&str; 6] = [
    "admit", "collect", "reserve", "estimate", "perturb", "settle",
];

/// The per-layer metrics of a traced run. Every name appears for every
/// workload; a layer a workload does not reach reads 0.
pub fn per_layer(layers: &Layers, spans: &[Span]) -> Vec<Metric> {
    let named = trace::by_name(spans);
    let calls = |name: &str| named.get(name).map_or(0, |t| t.0) as f64;
    let self_ms = |name: &str| named.get(name).map_or(0, |t| t.1) as f64 / 1e6;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let s = &layers.stages;
    let fresh = s.answers_released - s.cache_hits;
    let count = |name, better, value: u64| Metric {
        name,
        unit: "count",
        better,
        value: value as f64,
        samples: None,
    };
    let ms = |name, value| Metric {
        name,
        unit: "ms",
        better: Better::Lower,
        value,
        samples: None,
    };
    let frac = |name, better, value| Metric {
        name,
        unit: "frac",
        better,
        value,
        samples: None,
    };
    let stage_names: [(&str, &str); 6] = [
        ("stage.admit.calls", "stage.admit.self_ms"),
        ("stage.collect.calls", "stage.collect.self_ms"),
        ("stage.reserve.calls", "stage.reserve.self_ms"),
        ("stage.estimate.calls", "stage.estimate.self_ms"),
        ("stage.perturb.calls", "stage.perturb.self_ms"),
        ("stage.settle.calls", "stage.settle.self_ms"),
    ];
    let mut out = Vec::new();
    for (stage, (calls_name, ms_name)) in STAGES.iter().zip(stage_names) {
        out.push(count(calls_name, Better::Lower, calls(stage) as u64));
        out.push(ms(ms_name, self_ms(stage)));
    }
    out.extend([
        ms("stage.unattributed_ms", self_ms("call")),
        ms(
            "trace.call_ms",
            trace::total_duration(spans, "call") as f64 / 1e6,
        ),
        count("batch.calls", Better::Lower, calls("batch") as u64),
        ms("batch.self_ms", self_ms("batch")),
        count("batch.rate_tiers", Better::Lower, layers.rate_tiers),
        count(
            "runtime.workers",
            Better::Higher,
            Runtime::global().worker_count() as u64,
        ),
        count("runtime.tasks", Better::Lower, layers.runtime.tasks_run),
        count("runtime.chunks", Better::Lower, layers.runtime.chunks),
        count(
            "runtime.sequential_fallbacks",
            Better::Lower,
            layers.runtime.sequential_fallbacks,
        ),
        count("engine.hits", Better::Higher, s.engine_hits),
        count("engine.plan_cache_hits", Better::Higher, s.plan_cache_hits),
        frac(
            "engine.plan_cache_hit_ratio",
            Better::Higher,
            ratio(s.plan_cache_hits, fresh),
        ),
        count("engine.gallop_steps", Better::Lower, s.gallop_steps),
        count("index.builds", Better::Lower, s.index_builds),
        count("index.delta_appends", Better::Lower, s.delta_appends),
        count("index.compactions", Better::Lower, s.compactions),
        count(
            "index.segments_live",
            Better::Lower,
            layers.last.stages.segments_live,
        ),
        frac(
            "index.indexed_ratio",
            Better::Higher,
            ratio(s.indexed_estimates, fresh),
        ),
        count("cache.hits", Better::Higher, s.cache_hits),
        count("cache.misses", Better::Lower, s.cache_misses),
        frac(
            "cache.hit_ratio",
            Better::Higher,
            ratio(s.cache_hits, s.cache_hits + s.cache_misses),
        ),
        count("cache.entries", Better::Higher, layers.last.cache_entries),
        ms("net.build_ms", layers.net_build_ms),
        count("net.rounds", Better::Lower, s.collection_rounds),
        count("net.samples", Better::Lower, layers.meter.samples),
        count("net.messages", Better::Lower, layers.meter.messages),
        count(
            "net.chargeable_messages",
            Better::Lower,
            layers.meter.chargeable_messages(),
        ),
        Metric {
            name: "net.bytes",
            unit: "bytes",
            better: Better::Lower,
            value: layers.meter.bytes as f64,
            samples: None,
        },
        Metric {
            name: "dp.eps_spent",
            unit: "eps",
            better: Better::Lower,
            value: layers.eps_spent,
            samples: None,
        },
        count("dp.operations", Better::Lower, layers.eps_operations),
        count("dp.rollbacks", Better::Lower, s.budget_rollbacks),
        count("pricing.settlements", Better::Higher, s.settlements),
        count(
            "pricing.ledger_records",
            Better::Higher,
            layers.last.ledger_records,
        ),
        ms("data.ingest_ms", self_ms("data.ingest")),
        ms("data.snapshot_ms", self_ms("data.snapshot")),
        count("data.window_records", Better::Higher, layers.window_records),
        ms("monitor.epoch.self_ms", self_ms("monitor.epoch")),
        count("trace.spans", Better::Lower, spans.len() as u64),
        frac("trace.overhead_frac", Better::Lower, layers.overhead_frac),
    ]);
    out
}

/// Writes the traced run's spans to `<dir>/spans-<workload>-<seed>.tsv`.
pub fn write_spans(args: &Args, tracer: &Tracer) {
    let Some(dir) = &args.spans_dir else { return };
    std::fs::create_dir_all(dir).expect("creating the spans directory");
    let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    let file = std::fs::File::create(&path).expect("creating the spans file");
    let mut out = std::io::BufWriter::new(file);
    tracer.write_tsv(&mut out).expect("writing spans");
    std::io::Write::flush(&mut out).expect("flushing spans");
}

/// A traced request: the estimate its Estimate stage produced, kept for
/// the scan cross-check.
#[derive(Debug, Clone, Copy)]
pub struct Estimated {
    /// The queried range.
    pub query: RangeQuery,
    /// The estimate, pre-noise.
    pub value: f64,
}

/// One request driven through the public stage structs in
/// `QuerySession::run`'s order, each stage inside its own span under a
/// `call` span.
///
/// # Panics
///
/// When Perturb fails after Reserve placed a hold: rolling a hold back
/// is crate-private, so the composition cannot undo it and must stop.
pub fn staged(
    broker: &mut Broker,
    buyer: Option<&str>,
    request: &QueryRequest,
    tracer: &mut Tracer,
    estimated: &mut Option<Estimated>,
) -> Result<PricedAnswer, CoreError> {
    tracer.enter("call");
    let out = staged_stages(broker, buyer, request, tracer, estimated);
    tracer.exit();
    out
}

fn staged_stages(
    broker: &mut Broker,
    buyer: Option<&str>,
    request: &QueryRequest,
    tracer: &mut Tracer,
    estimated: &mut Option<Estimated>,
) -> Result<PricedAnswer, CoreError> {
    *estimated = None;
    let admitted = match tracer.span("admit", || Admit { request, buyer }.run(broker))? {
        Admission::Cached { answer, quote } => {
            return Ok(tracer.span("settle", || {
                Settle {
                    answer,
                    reservation: None,
                    quote,
                    buyer,
                }
                .run(broker)
            }));
        }
        Admission::Fresh(admitted) => admitted,
    };
    let target_probability = admitted.target_probability;
    tracer.span("collect", || Collect { target_probability }.run(broker));
    let accuracy = admitted.request.accuracy;
    let reserved = tracer.span("reserve", || Reserve { accuracy }.run(broker))?;
    let query = admitted.request.query;
    let sample_estimate = tracer
        .span("estimate", || Estimate { query }.run(broker))
        .sample_estimate;
    *estimated = Some(Estimated {
        query,
        value: sample_estimate,
    });
    let answer = tracer
        .span("perturb", || {
            Perturb {
                query,
                accuracy: Some(accuracy),
                plan: reserved.plan,
                sample_estimate,
            }
            .run(broker)
        })
        .unwrap_or_else(|e| panic!("traced Perturb failed after its hold was placed: {e}"));
    Ok(tracer.span("settle", || {
        Settle {
            answer,
            reservation: reserved.reservation,
            quote: admitted.quote,
            buyer,
        }
        .run(broker)
    }))
}

/// Checks every [`ESTIMATE_CHECK_EVERY`]-th traced estimate against the
/// direct `RankCounting` scan of the broker's current station; returns
/// false on a mismatch.
pub fn check_estimate(broker: &Broker, estimated: Option<Estimated>, seen: &mut u64) -> bool {
    let Some(e) = estimated else { return true };
    *seen += 1;
    if !seen.is_multiple_of(ESTIMATE_CHECK_EVERY) {
        return true;
    }
    RankCounting
        .estimate(broker.network().station(), e.query)
        .to_bits()
        == e.value.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names listed under `section` in `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_owned())
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.to_owned()).collect()
    }

    #[test]
    fn each_mode_prints_exactly_the_metrics_benchmark_json_lists() {
        let outcome = Outcome::default();
        let e2e = end_to_end(1.0, 1.0, 1.0, 1, 1.0, &outcome, &Window::default());
        assert_eq!(names(&e2e), listed("end_to_end"));
        let layers = per_layer(&Layers::default(), &[]);
        assert_eq!(names(&layers), listed("per_layer"));
        // Both render: names and units pass validation, none repeats.
        crate::json::result_line(true, 1, 0, &e2e);
        crate::json::result_line(true, 1, 0, &layers);
    }

    #[test]
    fn the_oracle_counts_a_closed_range() {
        let oracle = Oracle::new(&[3.0, 1.0, 2.0, 2.0, 5.0]);
        let q = |l, u| RangeQuery::new(l, u).unwrap();
        assert_eq!(oracle.count(q(2.0, 3.0)), 3);
        assert_eq!(oracle.count(q(2.5, 2.9)), 0);
        assert_eq!(oracle.count(q(0.0, 9.0)), 5);
    }
}
