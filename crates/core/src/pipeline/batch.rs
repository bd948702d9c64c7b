//! The batched driver: the same six stages as [`crate::pipeline`], run
//! on a per-tier schedule instead of per request.
//!
//! The batch is partitioned by each request's *required sampling rate*;
//! rates are visited in ascending order, so every tier's queries are
//! evaluated right after the single [`Collect`] round that tops the
//! network up to that tier (lower tiers are answered at their own,
//! cheaper rate — exactly what a sorted sequence of single sessions
//! would do). Within a tier, admission, planning, and budget holds run
//! sequentially in input order. The [`Estimate`] stage then answers the
//! tier against the shared base-station sample, on the calling thread
//! unless the tier declares at least [`ESTIMATE_FAN_OUT_MIN`] sorted-array
//! searches, in which case it fans out over the shared
//! [`prc_runtime::Runtime`] pool. With a query index ready, each chunk
//! goes through [`QueryIndex::estimate_batch`], which picks per-query
//! `partition_point` or the sorted-batch sweep by
//! [`engine::batch_resolver`]. The [`Perturb`] stage runs sequentially
//! in input order, keeping the whole batch deterministic in the
//! broker's seed regardless of thread scheduling. Each member's hold is
//! committed at its [`Settle`] or rolled back if its release fails.
//!
//! [`Estimate`]: crate::pipeline::stages::Estimate
//! [`QueryIndex::estimate_batch`]: crate::estimator::QueryIndex::estimate_batch
//! [`engine::batch_resolver`]: crate::estimator::engine::batch_resolver

use std::collections::BTreeMap;

use prc_dp::budget::Reservation;
use prc_net::network::Network;
use prc_pricing::reuse::Demand;
use prc_runtime::{CutoffPolicy, Runtime};

use crate::accuracy::required_probability_clamped;
use crate::broker::{BatchReport, BatchStats, DataBroker, IndexState, PrivateAnswer};
use crate::error::CoreError;
use crate::estimator::RangeCountEstimator;
use crate::optimizer::{NetworkShape, PerturbationPlan};
use crate::pipeline::stages::{
    abort, demand_cache_lookup, plan_with_retry, prepare_index, reserve_effective, Collect,
    Perturb, Settle,
};
use crate::pipeline::QuerySession;
use crate::query::QueryRequest;

/// Fewest sorted-array boundary searches a tier's Estimate stage must
/// declare before it is handed to the runtime pool. A query searches
/// each segment's merged arrays on the index path and each node's
/// sample on the scan path, so a tier declares `queries × segments` or
/// `queries × k`.
///
/// Derivation: `BENCH_runtime_pool.json` puts one pool call's overhead
/// beyond its share of the work (`dispatch_us`: wake the workers, hand
/// out the chunks, join) at 5–7 µs on a two-lane pool. Splitting `W`
/// searches of `c` ns over two lanes saves `W × c / 2`. An index query
/// costs ~55 ns (`BENCH_query_engine.json`, `baseline_qps` at 2,063
/// entries), so it breaks even at ~200–260 searches; a scan-path node
/// search costs ~20 ns (`BENCH_rank_index.json`, `scan_qps` at 64
/// nodes), breaking even at ~500–700. `2^9` sits between the two; a
/// tier on the wrong side of its own break-even by 2× gains or loses at
/// most one dispatch. Chunk results are flattened in submission order
/// and estimates are chunk-invariant, so the cutoff never changes a
/// released bit, only which thread computes it.
pub const ESTIMATE_FAN_OUT_MIN: usize = 1 << 9;

/// The Estimate stage's cutoff policy, with work measured in sorted-array
/// searches (see [`ESTIMATE_FAN_OUT_MIN`]).
const ESTIMATE_CUTOFF: CutoffPolicy = CutoffPolicy::min_work(ESTIMATE_FAN_OUT_MIN);

/// One tier member that survived admission and reservation, awaiting its
/// estimate and release.
struct Pending {
    slot: usize,
    plan: PerturbationPlan,
    reservation: Option<Reservation>,
}

/// Runs a batch of requests through the staged pipeline.
///
/// # Panics
///
/// Only to propagate an estimate worker's panic, re-raised through the
/// runtime's single panic path ([`Runtime::map_chunked`]), or if the
/// tier scheduler violates its own invariant and leaves a member's slot
/// unfilled.
pub fn run_batch<E, N>(broker: &mut DataBroker<E, N>, requests: &[QueryRequest]) -> BatchReport
where
    E: RangeCountEstimator + Sync,
    N: Network,
{
    let meter_before = broker.network.meter().snapshot();
    let counters_before = broker.counters;
    let mut fan_out_threads: u64 = 0;
    let mut answers: Vec<Option<Result<PrivateAnswer, CoreError>>> =
        requests.iter().map(|_| None).collect();

    let k = broker.network.node_count();
    let n = broker.network.total_data_size();
    let mut tiers: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    if n == 0 {
        answers.fill(Some(Err(CoreError::NoSamples)));
    } else {
        // Admit (batch half): partition by required sampling rate.
        for (i, request) in requests.iter().enumerate() {
            let internal = broker.sampling_policy.internal_target(request.accuracy);
            match required_probability_clamped(internal, k, n) {
                Ok(p) => tiers.entry(p.to_bits()).or_default().push(i),
                Err(e) => answers[i] = Some(Err(e)),
            }
        }
    }
    let rate_tiers = tiers.len() as u64;

    for (p_bits, members) in tiers {
        // Collect: one round per tier (ascending rates, so each round is
        // an incremental top-up).
        Collect {
            target_probability: f64::from_bits(p_bits),
        }
        .run(broker);

        // Admit (cache half) + Reserve: sequential, in input order,
        // because they mutate broker state.
        let mut pending: Vec<Pending> = Vec::new();
        let mut deferred: Vec<usize> = Vec::new();
        for &i in &members {
            let request = &requests[i];
            if let Some(hit) = demand_cache_lookup(broker, request) {
                broker.counters.answers_released += 1;
                answers[i] = Some(Ok(hit));
                continue;
            }
            // A duplicate of an earlier in-flight request will be
            // servable from the cache once the tier releases; defer it
            // instead of planning (and paying for) it twice.
            if let Some(guard) = broker.reuse_guard.as_deref() {
                let requested = Demand::new(request.accuracy.alpha(), request.accuracy.delta());
                let duplicate = pending.iter().any(|member| {
                    let prior = &requests[member.slot];
                    prior.query == request.query
                        && guard.allows_reuse(
                            requested,
                            Demand::new(prior.accuracy.alpha(), prior.accuracy.delta()),
                        )
                });
                if duplicate {
                    deferred.push(i);
                    continue;
                }
            }
            let plan = match plan_with_retry(broker, request.accuracy) {
                Ok(plan) => plan,
                Err(e) => {
                    answers[i] = Some(Err(e));
                    continue;
                }
            };
            let reservation = match reserve_effective(broker, plan.effective_epsilon) {
                Ok(reservation) => reservation,
                Err(e) => {
                    answers[i] = Some(Err(e));
                    continue;
                }
            };
            pending.push(Pending {
                slot: i,
                plan,
                reservation,
            });
        }
        if pending.is_empty() && deferred.is_empty() {
            continue;
        }

        if !pending.is_empty() {
            // Estimate over the shared sample. The station is immutable
            // for the rest of the tier, so worker threads can share it;
            // a tier too small to pay for a pool dispatch stays on this
            // thread. With a query index ready for this epoch, every
            // chunk answers through it — same bits as the scan,
            // `O(log S)` per query instead of `O(k log s)`.
            prepare_index(broker, pending.len() as u64);
            let station = broker.network.station();
            let estimator = &broker.estimator;
            let index = match &broker.index {
                IndexState::Ready(_, index) => Some(index.as_ref()),
                _ => None,
            };
            let searches_per_query = index.map_or(k, |index| index.segments());
            // Chunk results flatten in submission order, so the released
            // answers are independent of worker count and scheduling.
            // The gallop-step meter rides along; the estimates
            // themselves are chunk-invariant.
            let chunked: Vec<(Vec<f64>, u64)> = Runtime::global().map_chunked(
                &pending,
                pending.len().saturating_mul(searches_per_query),
                ESTIMATE_CUTOFF,
                |chunk| match index {
                    Some(index) => {
                        let queries: Vec<_> = chunk
                            .items
                            .iter()
                            .map(|member| requests[member.slot].query)
                            .collect();
                        let batch = index.estimate_batch(&queries);
                        (batch.estimates, batch.gallop_steps)
                    }
                    None => (
                        chunk
                            .items
                            .iter()
                            .map(|member| estimator.estimate(station, requests[member.slot].query))
                            .collect(),
                        0,
                    ),
                },
            );
            fan_out_threads = fan_out_threads.max(chunked.len() as u64);
            let gallop_steps: u64 = chunked.iter().map(|(_, steps)| steps).sum();
            let estimates: Vec<f64> = chunked
                .into_iter()
                .flat_map(|(estimates, _)| estimates)
                .collect();
            if index.is_some() {
                broker.counters.indexed_estimates += pending.len() as u64;
                broker.counters.engine_hits += pending.len() as u64;
                broker.counters.gallop_steps += gallop_steps;
            }

            // Perturb + Settle: sequential in input order so the broker's
            // noise stream is independent of the fan-out. Each member's
            // hold commits with its release, or rolls back on failure.
            let shape = NetworkShape::from_station(broker.network.station());
            for (member, sample_estimate) in pending.into_iter().zip(estimates) {
                let result = shape.clone().and_then(|shape| {
                    Perturb {
                        query: requests[member.slot].query,
                        accuracy: Some(requests[member.slot].accuracy),
                        plan: member.plan,
                        sample_estimate,
                    }
                    .run_with_shape(broker, shape)
                });
                answers[member.slot] = Some(match result {
                    Ok(answer) => {
                        let settled = Settle {
                            answer,
                            reservation: member.reservation,
                            quote: None,
                            buyer: None,
                        }
                        .run(broker);
                        Ok(settled.answer)
                    }
                    Err(e) => {
                        abort(broker, member.reservation);
                        Err(e)
                    }
                });
            }
        }

        // Deferred duplicates now find their progenitor in the cache
        // (or, if it failed, re-run the pipeline and fail the same way).
        for i in deferred {
            let result = QuerySession::new(broker)
                .run(&requests[i])
                .map(|priced| priced.answer);
            answers[i] = Some(result);
        }
    }

    let meter_after = broker.network.meter().snapshot();
    let counters_after = broker.counters;
    BatchReport {
        answers: answers
            .into_iter()
            // prc-lint: allow(P002, reason = "loud invariant: every tier fills its members' slots; a silent Err would mask a scheduler bug")
            .map(|slot| slot.expect("every request resolved"))
            .collect(),
        stats: BatchStats {
            requests: requests.len() as u64,
            rate_tiers,
            collection_rounds: counters_after.collection_rounds - counters_before.collection_rounds,
            samples_collected: counters_after.samples_collected - counters_before.samples_collected,
            cache_hits: counters_after.cache_hits - counters_before.cache_hits,
            chargeable_messages: meter_after.chargeable_messages()
                - meter_before.chargeable_messages(),
            fan_out_threads,
            index_builds: counters_after.index_builds - counters_before.index_builds,
            indexed_estimates: counters_after.indexed_estimates - counters_before.indexed_estimates,
            engine_hits: counters_after.engine_hits - counters_before.engine_hits,
            plan_cache_hits: counters_after.plan_cache_hits - counters_before.plan_cache_hits,
            gallop_steps: counters_after.gallop_steps - counters_before.gallop_steps,
        },
    }
}
