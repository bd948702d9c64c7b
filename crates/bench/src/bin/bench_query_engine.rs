//! Batched query-engine benchmark: the sorted-batch sweep against the
//! two-`partition_point` baseline.
//!
//! For each cell of a node-count × query-count grid the same query
//! workload is answered two ways over one [`RankIndex`]:
//!
//! * **baseline** — per query, two `partition_point` binary searches
//!   over the sorted values ([`RankIndex::estimate`]);
//! * **batch** — the whole workload in one call, its `2q` boundaries
//!   sorted once and resolved in a single galloping forward sweep
//!   ([`RankIndex::estimate_sweep`]).
//!
//! Each cell also names the resolver [`engine::batch_resolver`] picks
//! for it (`resolver`), which is what `QueryIndex::estimate_batch` and
//! the broker's batch driver run: the sweep should be picked exactly
//! where it wins.
//!
//! Every path is timed as the minimum of `REPS` runs, and every run's
//! released bits must be identical across reps *and* across paths
//! before any timing is trusted (`all_identical`). A final section runs
//! the full batched broker pipeline with repeated accuracy classes over
//! distinct ranges and asserts the engine and optimizer plan-cache
//! counters actually moved — proof the wired paths, not fallbacks,
//! answered the batch.
//!
//! Run with `cargo run -p prc-bench --release --bin bench_query_engine`.
//! Set `PRC_BENCH_SMOKE=1` to shrink every dimension to CI-smoke sizes
//! (identity and counter self-checks still run and must pass; the
//! wall-clock speedup bar is skipped). Writes `BENCH_query_engine.json`
//! at the repository root.

use std::time::Instant;

use prc_core::broker::DataBroker;
use prc_core::estimator::engine::{self, BatchResolver};
use prc_core::estimator::RankIndex;
use prc_core::query::{Accuracy, QueryRequest, RangeQuery};
use prc_net::base_station::BaseStation;
use prc_net::network::FlatNetwork;

const SEED: u64 = 2014;
const REPS: usize = 3;

/// True when `PRC_BENCH_SMOKE` asks for CI-smoke sizes.
fn smoke() -> bool {
    std::env::var("PRC_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn queries_per_sec(requests: usize, seconds: f64) -> f64 {
    requests as f64 / seconds.max(1e-12)
}

/// Collects one epoch's station: `k` nodes of `per_node` contiguous
/// values each, sampled at `p` (the `bench_batch` trajectory geometry,
/// so cells are comparable across the two benchmarks).
fn trajectory_station(k: usize, per_node: usize, p: f64) -> BaseStation {
    let partitions: Vec<Vec<f64>> = (0..k)
        .map(|i| (0..per_node).map(|j| (i * per_node + j) as f64).collect())
        .collect();
    let mut network = FlatNetwork::from_partitions(partitions, SEED);
    network.collect_samples(p);
    network.station().clone()
}

/// A deterministic splitmix64 stream — the workload generator below
/// needs `count` *distinct* bounds, not a short periodic pattern that
/// would leave every baseline search path resident in cache.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic mixed-width query workload over support `[0, n)`
/// with per-query distinct bounds (seeded, reproducible).
fn trajectory_queries(count: usize, n: f64) -> Vec<RangeQuery> {
    let mut state = SEED;
    (0..count)
        .map(|_| {
            let unit = |s: &mut u64| (splitmix64(s) >> 11) as f64 / (1u64 << 53) as f64;
            let lower = n * 0.9 * unit(&mut state);
            let width = n * (0.05 + 0.3 * unit(&mut state));
            RangeQuery::new(lower, (lower + width).min(n)).expect("valid range")
        })
        .collect()
}

/// Minimum-of-`REPS` timing of one resolver path. Every rep must release
/// the same bits; the first rep's bits are returned for the cross-path
/// identity check.
fn time_path(label: &str, mut run: impl FnMut() -> Vec<u64>) -> (f64, Vec<u64>) {
    let mut best = f64::INFINITY;
    let mut bits: Option<Vec<u64>> = None;
    for rep in 0..REPS {
        let start = Instant::now();
        let released = run();
        let seconds = start.elapsed().as_secs_f64();
        best = best.min(seconds);
        match &bits {
            None => bits = Some(released),
            Some(first) => assert_eq!(
                first, &released,
                "{label} released different bits on rep {rep}"
            ),
        }
    }
    (best, bits.unwrap_or_default())
}

/// One grid cell: the same workload through both resolver paths.
struct EngineCell {
    nodes: usize,
    queries: usize,
    merged_entries: usize,
    baseline_seconds: f64,
    batch_seconds: f64,
    gallop_steps: u64,
    identical: bool,
}

impl EngineCell {
    /// The resolver the engine's dispatch rule picks for this cell.
    fn resolver(&self) -> &'static str {
        match engine::batch_resolver(self.queries, self.merged_entries) {
            BatchResolver::PartitionPoint => "partition_point",
            BatchResolver::Sweep => "sweep",
        }
    }

    /// Per-query speedup of the sorted-batch sweep over the baseline —
    /// the bar this engine is accountable to.
    fn speedup_batch(&self) -> f64 {
        self.baseline_seconds / self.batch_seconds.max(1e-12)
    }

    fn json(&self) -> String {
        format!(
            "    {{\"nodes\": {}, \"queries\": {}, \"merged_entries\": {}, \"baseline_seconds\": {:.6}, \"batch_seconds\": {:.6}, \"baseline_qps\": {:.2}, \"batch_qps\": {:.2}, \"speedup_batch\": {:.2}, \"resolver\": \"{}\", \"gallop_steps\": {}, \"identical\": {}}}",
            self.nodes,
            self.queries,
            self.merged_entries,
            self.baseline_seconds,
            self.batch_seconds,
            queries_per_sec(self.queries, self.baseline_seconds),
            queries_per_sec(self.queries, self.batch_seconds),
            self.speedup_batch(),
            self.resolver(),
            self.gallop_steps,
            self.identical,
        )
    }
}

/// Benchmarks both resolver paths across node and query counts.
fn engine_trajectory() -> Vec<EngineCell> {
    let (node_counts, query_counts, per_node): (&[usize], &[usize], usize) = if smoke() {
        (&[16, 64], &[4, 16], 64)
    } else {
        (
            &[64, 1_024, 2_048, 4_096, 8_192, 16_384],
            &[16, 256, 1_024, 2_048, 4_096],
            128,
        )
    };
    let p = 0.25;
    let mut cells = Vec::new();
    for &k in node_counts {
        let station = trajectory_station(k, per_node, p);
        let index = RankIndex::build(&station).expect("uniform station builds");
        for &count in query_counts {
            let queries = trajectory_queries(count, (k * per_node) as f64);

            let (baseline_seconds, baseline_bits) = time_path("baseline", || {
                queries
                    .iter()
                    .map(|&q| index.estimate(q).to_bits())
                    .collect()
            });
            let mut gallop_steps = 0;
            let (batch_seconds, batch_bits) = time_path("batch", || {
                let batch = index.estimate_sweep(&queries);
                gallop_steps = batch.gallop_steps;
                batch.estimates.iter().map(|e| e.to_bits()).collect()
            });

            cells.push(EngineCell {
                nodes: k,
                queries: count,
                merged_entries: index.merged_entries(),
                baseline_seconds,
                batch_seconds,
                gallop_steps,
                identical: baseline_bits == batch_bits,
            });
        }
    }
    cells
}

/// The end-to-end section: a batched broker run whose workload repeats
/// a few accuracy classes over *distinct* ranges, so the optimizer plan
/// cache (keyed by accuracy and rate tier, not by range) must hit while
/// the answer cache cannot.
struct PipelineSection {
    requests: usize,
    engine_hits: u64,
    plan_cache_hits: u64,
    gallop_steps: u64,
    indexed_estimates: u64,
    deterministic: bool,
}

impl PipelineSection {
    fn json(&self) -> String {
        format!(
            "  {{\"requests\": {}, \"engine_hits\": {}, \"plan_cache_hits\": {}, \"gallop_steps\": {}, \"indexed_estimates\": {}, \"deterministic\": {}}}",
            self.requests,
            self.engine_hits,
            self.plan_cache_hits,
            self.gallop_steps,
            self.indexed_estimates,
            self.deterministic,
        )
    }
}

fn pipeline_section() -> PipelineSection {
    let (k, per_node, count) = if smoke() {
        (8, 256, 16)
    } else {
        (32, 4_096, 128)
    };
    let n = (k * per_node) as f64;
    let partitions: Vec<Vec<f64>> = (0..k)
        .map(|i| (0..per_node).map(|j| (i + k * j) as f64).collect())
        .collect();
    // Two accuracy classes over distinct, non-repeating ranges.
    let accuracies = [
        Accuracy::new(0.1, 0.5).expect("valid"),
        Accuracy::new(0.15, 0.6).expect("valid"),
    ];
    let requests: Vec<QueryRequest> = (0..count)
        .map(|i| {
            let lower = n * 0.8 * (i as f64) / count as f64;
            let width = n * (0.1 + 0.2 * ((i * 13) % 8) as f64 / 8.0);
            QueryRequest::new(
                RangeQuery::new(lower, (lower + width).min(n)).expect("valid range"),
                accuracies[i % accuracies.len()],
            )
        })
        .collect();

    let run = || {
        let mut broker =
            DataBroker::new(FlatNetwork::from_partitions(partitions.clone(), SEED), SEED);
        broker.set_index_threshold(0); // force the engine path
        broker.answer_batch(&requests)
    };
    let report = run();
    let rerun = run();
    let bits = |r: &prc_core::broker::BatchReport| -> Vec<u64> {
        r.answers
            .iter()
            .map(|a| a.as_ref().expect("batch answer").value.to_bits())
            .collect()
    };
    PipelineSection {
        requests: requests.len(),
        engine_hits: report.stats.engine_hits,
        plan_cache_hits: report.stats.plan_cache_hits,
        gallop_steps: report.stats.gallop_steps,
        indexed_estimates: report.stats.indexed_estimates,
        deterministic: bits(&report) == bits(&rerun),
    }
}

fn main() {
    let cells = engine_trajectory();
    let all_identical = cells.iter().all(|c| c.identical);
    let pipeline = pipeline_section();

    let cell_json = cells
        .iter()
        .map(EngineCell::json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"query_engine\",\n  \"smoke\": {},\n  \"seed\": {SEED},\n  \"probability\": 0.25,\n  \"reps\": {REPS},\n  \"cells\": [\n{cell_json}\n  ],\n  \"all_identical\": {all_identical},\n  \"pipeline\":\n{}\n}}",
        smoke(),
        pipeline.json(),
    );
    println!("{json}");

    // The trajectory lands at the repository root so successive PRs can
    // diff it; fall back to CWD when the manifest-relative path is absent.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let target = if root.is_dir() {
        root.join("BENCH_query_engine.json")
    } else {
        std::path::PathBuf::from("BENCH_query_engine.json")
    };
    match std::fs::write(&target, &json) {
        Ok(()) => eprintln!("json: {}", target.display()),
        Err(e) => eprintln!("could not write {}: {e}", target.display()),
    }

    assert!(
        all_identical,
        "engine paths diverged from the partition_point baseline"
    );
    assert!(
        pipeline.deterministic,
        "batched engine runs must release bit-identical answers"
    );
    assert!(
        pipeline.engine_hits > 0,
        "the batch pipeline never touched the engine (engine_hits = 0)"
    );
    assert!(
        pipeline.plan_cache_hits > 0,
        "repeated accuracy classes produced no plan-cache hits"
    );
    assert_eq!(
        pipeline.engine_hits, pipeline.indexed_estimates,
        "every indexed estimate must route through the engine"
    );
    for cell in &cells {
        let batch = cell.speedup_batch();
        assert!(
            batch.is_finite() && batch > 0.0,
            "batch speedup degenerated at k={} q={} (got {batch})",
            cell.nodes,
            cell.queries,
        );
    }

    if !smoke() {
        // The headline bar: at the largest cell the sorted-batch sweep
        // must beat the pre-engine indexed path per query by ≥ 1.3×.
        for cell in &cells {
            if cell.nodes >= 16_384 && cell.queries >= 4_096 {
                let speedup = cell.speedup_batch();
                assert!(
                    speedup >= 1.3,
                    "batch resolver must be ≥1.3× the partition_point baseline at k={} q={} (got {speedup:.2}×)",
                    cell.nodes,
                    cell.queries,
                );
            }
        }
    }
}
