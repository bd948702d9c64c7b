//! The six pipeline stages.
//!
//! Each stage is a named struct whose `run` consumes its typed input and
//! produces the next stage's typed input. Stages mutate only the broker
//! state they own — the same mutations, in the same order, as the
//! pre-pipeline entry points, which is what keeps every released answer
//! bit-identical across the refactor:
//!
//! * [`Admit`] / [`AdmitFixed`] — price quote, cache lookup, admission
//!   checks (no broker mutation beyond cache counters);
//! * [`Collect`] — sample top-up through
//!   [`prc_net::network::Network::top_up`] (station mutation, index
//!   invalidation);
//! * [`Reserve`] / [`ReserveFixed`] — perturbation planning and the
//!   two-phase budget **hold** (reserve now, commit or roll back later);
//! * [`Estimate`] — index-or-scan sample estimate (index build);
//! * [`Perturb`] — the only stage that consumes broker randomness;
//! * [`Settle`] — budget commit, cache store, ledger settlement.

use prc_dp::budget::{Epsilon, Reservation};
use prc_dp::laplace::draw_centered;
use prc_net::message::NodeId;
use prc_net::network::Network;
use prc_pricing::engine::{Quote, Settlement};
use prc_pricing::reuse::Demand;

use crate::accuracy::required_probability_clamped;
use crate::broker::{
    DataBroker, IndexFingerprint, IndexGeneration, IndexPolicy, IndexState, PrivateAnswer,
};
use crate::error::CoreError;
use crate::estimator::engine::PlanCache;
use crate::estimator::RangeCountEstimator;
use crate::optimizer::{optimize, NetworkShape, PerturbationPlan, SensitivityPolicy};
use crate::pipeline::PricedAnswer;
use crate::query::{Accuracy, QueryRequest, RangeQuery};

/// Admission decision for one `(α, δ)` request.
#[derive(Debug)]
pub enum Admission {
    /// The cache already holds a reusable answer; skip straight to
    /// [`Settle`] (a re-release is post-processing: budget-free).
    Cached {
        /// The cached answer, bit-identical to its first release.
        answer: PrivateAnswer,
        /// The quote issued for this request, if the session is priced.
        quote: Option<Quote>,
    },
    /// No reusable answer; run the full pipeline.
    Fresh(Admitted),
}

/// A freshly admitted request, ready for [`Collect`].
#[derive(Debug)]
pub struct Admitted {
    /// The admitted request.
    pub request: QueryRequest,
    /// Sampling probability the collection stage must reach.
    pub target_probability: f64,
    /// The quote issued for this request, if the session is priced.
    pub quote: Option<Quote>,
}

/// Stage 1 — Admit: quote the demand (priced sessions), consult the
/// answer cache, and validate that the network can be sampled at all.
#[derive(Debug)]
pub struct Admit<'r> {
    /// The incoming request.
    pub request: &'r QueryRequest,
    /// The purchasing consumer, when the session is priced.
    pub buyer: Option<&'r str>,
}

impl Admit<'_> {
    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// [`CoreError::Pricing`] when the engine refuses the demand (invalid
    /// or arbitrageable — checked *before* any budget or sample moves);
    /// [`CoreError::NoSamples`] when the network is empty;
    /// [`CoreError::InvalidAccuracy`] from the sampling-target solver.
    pub fn run<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
    ) -> Result<Admission, CoreError> {
        let quote = match (&mut broker.pricing, self.buyer) {
            (Some(engine), Some(_)) => Some(engine.quote(Demand::new(
                self.request.accuracy.alpha(),
                self.request.accuracy.delta(),
            ))?),
            _ => None,
        };
        if let Some(answer) = demand_cache_lookup(broker, self.request) {
            broker.counters.answers_released += 1;
            return Ok(Admission::Cached { answer, quote });
        }
        let k = broker.network.node_count();
        let n = broker.network.total_data_size();
        if n == 0 {
            return Err(CoreError::NoSamples);
        }
        let internal = broker
            .sampling_policy
            .internal_target(self.request.accuracy);
        let target_probability = required_probability_clamped(internal, k, n)?;
        Ok(Admission::Fresh(Admitted {
            request: *self.request,
            target_probability,
            quote,
        }))
    }
}

/// Admission decision for one fixed-ε request.
#[derive(Debug)]
pub enum FixedAdmission {
    /// A cached fixed-ε answer at this exact ε covers the request.
    Cached(PrivateAnswer),
    /// Run the full fixed-ε pipeline.
    Fresh,
}

/// Stage 1 (fixed-ε variant) — validate the requested probability and
/// consult the cache for a prior release at the same range and ε.
#[derive(Debug)]
pub struct AdmitFixed {
    /// The queried range.
    pub query: RangeQuery,
    /// The fixed Laplace budget.
    pub epsilon: Epsilon,
    /// The sampling probability to top up to.
    pub probability: f64,
}

impl AdmitFixed {
    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidProbability`] when `p` is outside `(0, 1]`.
    pub fn run<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
    ) -> Result<FixedAdmission, CoreError> {
        let p = self.probability;
        if !(0.0..=1.0).contains(&p) || p == 0.0 {
            return Err(CoreError::InvalidProbability { value: p });
        }
        if let Some(answer) = fixed_cache_lookup(broker, self.query, self.epsilon, p) {
            broker.counters.answers_released += 1;
            return Ok(FixedAdmission::Cached(answer));
        }
        Ok(FixedAdmission::Fresh)
    }
}

/// Post-collection station state.
#[derive(Debug, Clone, Copy)]
pub struct Collected {
    /// The sampling probability actually achieved after the top-up.
    pub achieved_probability: f64,
}

/// Stage 2 — Collect: top the network up to the admitted target.
///
/// A round that actually collects reports its [`RoundDelta`]
/// (`prc_net::network::RoundDelta`) — the exact set of changed nodes.
/// The query index is *not* discarded: [`prepare_index`] later absorbs
/// the delta through the station's revision journal. The answer cache
/// *is* delta-filtered here: cached answers whose range touches a
/// changed node's value span are evicted, while answers over untouched
/// ranges survive the round (eviction consumes no randomness and no
/// budget — it only forces a fresh pipeline run on the next request).
#[derive(Debug)]
pub struct Collect {
    /// Sampling probability to reach.
    pub target_probability: f64,
}

impl Collect {
    /// Runs the stage (infallible: a short delivery simply leaves the
    /// achieved probability below target, which later stages re-check).
    pub fn run<E, N: Network>(self, broker: &mut DataBroker<E, N>) -> Collected {
        if let Some(delta) = broker.network.top_up_delta(self.target_probability) {
            broker.counters.collection_rounds += 1;
            broker.counters.samples_collected += delta.delivered as u64;
            evict_touched_answers(broker, &delta.changed);
        }
        Collected {
            achieved_probability: broker.network.station().effective_probability(),
        }
    }
}

/// Evicts cached answers whose query range intersects a changed node's
/// value span, so only answers the round could not have affected keep
/// being re-served. A changed node without entries has no known span and
/// is treated as touching everything (conservative full clear).
pub(crate) fn evict_touched_answers<E, N: Network>(
    broker: &mut DataBroker<E, N>,
    changed: &[NodeId],
) {
    if broker.cache.is_empty() || changed.is_empty() {
        return;
    }
    let station = broker.network.station();
    let mut spans: Vec<(f64, f64)> = Vec::with_capacity(changed.len());
    for &node in changed {
        match station.node_sample(node).and_then(|s| s.value_span()) {
            Some(span) => spans.push(span),
            None => {
                broker.cache.clear();
                return;
            }
        }
    }
    broker.cache.retain(|&(lower_bits, upper_bits, _), _| {
        let lower = f64::from_bits(lower_bits);
        let upper = f64::from_bits(upper_bits);
        !spans.iter().any(|&(lo, hi)| lo <= upper && lower <= hi)
    });
}

/// A planned and budget-held request, ready for [`Estimate`].
///
/// `reservation` is a two-phase hold on the accountant: [`Settle`]
/// commits it after a successful release, [`abort`] rolls it back if any
/// later stage fails — the budget leak the old single-phase `spend` had
/// on failed answers cannot happen here.
#[derive(Debug)]
pub struct Reserved {
    /// The perturbation plan the answer will be released under.
    pub plan: PerturbationPlan,
    /// The budget hold (`None` when no accountant is installed).
    pub reservation: Option<Reservation>,
}

/// Stage 3 — Reserve: solve problem (3) for the perturbation plan and
/// place a hold for its effective `ε′` on the accountant.
#[derive(Debug)]
pub struct Reserve {
    /// The customer accuracy to plan for.
    pub accuracy: Accuracy,
}

impl Reserve {
    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// [`CoreError::InfeasibleAccuracy`] when even a full top-up cannot
    /// meet the demand; [`CoreError::Dp`] when the hold would overdraw
    /// the budget.
    pub fn run<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
    ) -> Result<Reserved, CoreError> {
        let plan = plan_with_retry(broker, self.accuracy)?;
        let reservation = reserve_effective(broker, plan.effective_epsilon)?;
        Ok(Reserved { plan, reservation })
    }
}

/// Stage 3 (fixed-ε variant) — derive the degenerate plan from the
/// achieved probability and the configured sensitivity policy, then hold
/// the amplified `ε′`.
#[derive(Debug)]
pub struct ReserveFixed {
    /// The fixed Laplace budget.
    pub epsilon: Epsilon,
}

impl ReserveFixed {
    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSamples`] on an empty station; [`CoreError::Dp`]
    /// from amplification or an overdrawing hold.
    pub fn run<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
    ) -> Result<Reserved, CoreError> {
        let shape = NetworkShape::from_station(broker.network.station())?;
        let achieved = broker.network.station().effective_probability();
        let sensitivity = match broker.optimizer_config.sensitivity {
            SensitivityPolicy::Expected => 1.0 / achieved,
            SensitivityPolicy::WorstCase => shape.max_node_population as f64,
            // Deliberately unvalidated: the experiment hook sweeps raw
            // values, and a bad one must fail at the noise draw — after
            // the hold — so the rollback path stays honest.
            SensitivityPolicy::Fixed(v) => v,
        };
        let noise_scale = sensitivity / self.epsilon.value();
        let effective = prc_dp::amplification::amplify(self.epsilon, achieved)?;
        // A degenerate but fully finite plan: the fixed-ε hook has no
        // intermediate accuracy split, so (α′, δ′) take their vacuous
        // values (no error bound claimed, confidence 1 that none is
        // exceeded) and the tail probability is 0.
        let plan = PerturbationPlan {
            alpha_prime: 0.0,
            delta_prime: 1.0,
            epsilon: self.epsilon,
            effective_epsilon: effective,
            sensitivity,
            noise_scale,
            probability: achieved,
            tail_probability: 0.0,
        };
        let reservation = reserve_effective(broker, effective)?;
        Ok(Reserved { plan, reservation })
    }
}

/// The pre-noise sample estimate.
#[derive(Debug, Clone, Copy)]
pub struct Estimated {
    /// The estimator's (or index's) range-count estimate.
    pub sample_estimate: f64,
}

/// Stage 4 — Estimate: answer the range count from the station's current
/// sample, through the epoch's query index when one is available
/// (bit-identical to the direct scan by the
/// [`crate::estimator::QueryIndex`] contract).
#[derive(Debug)]
pub struct Estimate {
    /// The queried range.
    pub query: RangeQuery,
}

impl Estimate {
    /// Runs the stage.
    pub fn run<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
    ) -> Estimated {
        prepare_index(broker, 1);
        let sample_estimate = match &broker.index {
            IndexState::Ready(_, index) => {
                broker.counters.indexed_estimates += 1;
                broker.counters.engine_hits += 1;
                index.estimate(self.query)
            }
            _ => broker
                .estimator
                .estimate(broker.network.station(), self.query),
        };
        Estimated { sample_estimate }
    }
}

/// Stage 5 — Perturb: draw the Laplace noise and assemble the answer.
///
/// The only stage that consumes broker randomness; batch drivers run it
/// sequentially in input order so the noise stream is independent of any
/// estimator fan-out.
#[derive(Debug)]
pub struct Perturb {
    /// The queried range.
    pub query: RangeQuery,
    /// The customer accuracy (`None` on the fixed-ε path).
    pub accuracy: Option<Accuracy>,
    /// The plan to perturb under.
    pub plan: PerturbationPlan,
    /// The pre-noise estimate.
    pub sample_estimate: f64,
}

impl Perturb {
    /// Runs the stage against the station's current shape.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSamples`] on an empty station; [`CoreError::Dp`]
    /// when the plan's noise scale is not a positive finite number.
    pub fn run<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
    ) -> Result<PrivateAnswer, CoreError> {
        let shape = NetworkShape::from_station(broker.network.station())?;
        self.run_with_shape(broker, shape)
    }

    /// Runs the stage with a shape the caller already computed (the batch
    /// driver computes it once per tier).
    ///
    /// # Errors
    ///
    /// [`CoreError::Dp`] when the plan's noise scale is not a positive
    /// finite number.
    pub fn run_with_shape<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
        shape: NetworkShape,
    ) -> Result<PrivateAnswer, CoreError> {
        let noise = draw_centered(self.plan.noise_scale, &mut broker.rng)?;
        let variance_bound =
            broker
                .estimator
                .variance_bound(shape.k, shape.n, self.plan.probability)
                + self.plan.noise_variance();
        broker.counters.answers_released += 1;
        Ok(PrivateAnswer {
            query: self.query,
            accuracy: self.accuracy,
            value: self.sample_estimate + noise,
            sample_estimate: self.sample_estimate,
            plan: self.plan,
            variance_bound,
        })
    }
}

/// Stage 6 — Settle: commit the budget hold, store the answer for
/// reuse, and (priced sessions) record the sale in the engine's ledger.
#[derive(Debug)]
pub struct Settle<'r> {
    /// The released answer.
    pub answer: PrivateAnswer,
    /// The budget hold to commit (`None`: unbudgeted, or a cached hit).
    pub reservation: Option<Reservation>,
    /// The quote issued at admission, if the session is priced.
    pub quote: Option<Quote>,
    /// The purchasing consumer, when the session is priced.
    pub buyer: Option<&'r str>,
}

impl Settle<'_> {
    /// Runs the stage (infallible: everything that can refuse the
    /// transaction already has).
    pub fn run<E, N: Network>(self, broker: &mut DataBroker<E, N>) -> PricedAnswer {
        if let Some(hold) = self.reservation {
            if let Some(accountant) = &mut broker.accountant {
                accountant.commit(hold);
            }
        }
        cache_store(broker, &self.answer);
        let (price, settlement) = match (self.quote, self.buyer, &mut broker.pricing) {
            (Some(quote), Some(buyer), Some(engine)) => {
                let sequence = engine.settle(Settlement {
                    buyer: buyer.to_owned(),
                    demand: quote.demand,
                    price: quote.price,
                    plan: self.answer.plan.summary(),
                });
                broker.counters.settlements += 1;
                (Some(quote.price), Some(sequence))
            }
            (Some(quote), ..) => (Some(quote.price), None),
            _ => (None, None),
        };
        PricedAnswer {
            answer: self.answer,
            price,
            settlement,
        }
    }
}

/// Rolls a failed session's budget hold back, restoring the reserved
/// `ε′` to the accountant.
pub(crate) fn abort<E, N>(broker: &mut DataBroker<E, N>, reservation: Option<Reservation>) {
    if let Some(hold) = reservation {
        if let Some(accountant) = &mut broker.accountant {
            accountant.rollback(hold);
            broker.counters.budget_rollbacks += 1;
        }
    }
}

/// Places a hold for `epsilon` on the accountant, if one is installed.
pub(crate) fn reserve_effective<E, N>(
    broker: &mut DataBroker<E, N>,
    epsilon: Epsilon,
) -> Result<Option<Reservation>, CoreError> {
    match &mut broker.accountant {
        Some(accountant) => Ok(Some(accountant.reserve(epsilon)?)),
        None => Ok(None),
    }
}

/// Solves problem (3), topping up once more if the optimizer reports the
/// demand infeasible at the achieved probability.
pub(crate) fn plan_with_retry<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    accuracy: Accuracy,
) -> Result<PerturbationPlan, CoreError> {
    match plan(broker, accuracy) {
        Ok(plan) => Ok(plan),
        Err(CoreError::InfeasibleAccuracy {
            required_probability,
            ..
        }) => {
            Collect {
                target_probability: (required_probability * 1.05).min(1.0),
            }
            .run(broker);
            plan(broker, accuracy)
        }
        Err(e) => Err(e),
    }
}

/// Solves problem (3) at the currently achieved sampling probability,
/// memoizing the grid sweep in the broker's plan cache.
///
/// The cache key is the fingerprint of `(α, δ, p)`; everything else the
/// optimizer reads — the network shape and the achieved rate — is a
/// function of the station, so the cache synchronizes on the station's
/// revision stamp (the same stamp the index cache invalidates on) and a
/// stale epoch can never serve a plan. Budget state never enters the
/// sweep (holds are placed *after* planning), so no budget-side
/// invalidation is needed; config swaps clear the cache at the setter.
fn plan<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    accuracy: Accuracy,
) -> Result<PerturbationPlan, CoreError> {
    let station = broker.network.station();
    let p = station.effective_probability();
    if p <= 0.0 {
        return Err(CoreError::NoSamples);
    }
    let revision = station.revision();
    let key = PlanCache::fingerprint(accuracy, p);
    if let Some(plan) = broker.plan_cache.lookup(revision, key) {
        broker.counters.plan_cache_hits += 1;
        return Ok(plan);
    }
    let shape = NetworkShape::from_station(station)?;
    let plan = optimize(accuracy, p, shape, &broker.optimizer_config)?;
    broker.plan_cache.insert(revision, key, plan);
    Ok(plan)
}

/// Makes the index slot reflect the station's *current* state, about to
/// answer `upcoming_queries` estimates. After this returns, an
/// `IndexState::Ready` slot is safe to answer from.
///
/// In order of preference:
///
/// 1. a live generation whose revision matches the station is kept
///    as-is;
/// 2. a drifted generation absorbs the exact changed-node delta from
///    the revision journal — a linear `O(S_touched + Δ log Δ)` rewrite
///    for nodes that topped up, `O(Δ log Δ)` for replaced ones — falling
///    back to 4 only when the index declines (e.g. the station lost its
///    uniform rate);
/// 3. a pending cross-broker [`crate::broker::IndexCacheHandle`] whose
///    station matches structurally is adopted instead of building;
/// 4. otherwise the [`IndexPolicy`] decides whether to build from
///    scratch now: a threshold policy compares sample counts, the
///    adaptive policy accrues the scanning cost of `upcoming_queries`
///    into its ski-rental meter and builds once scanning has foregone a
///    build's worth of savings.
pub(crate) fn prepare_index<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    upcoming_queries: u64,
) {
    let station = broker.network.station();
    let revision = station.revision();
    let fingerprint: IndexFingerprint = (
        station.uniform_probability().map(f64::to_bits),
        station.total_samples(),
    );

    // 1 + 2: a live generation is kept or brought up to date in place.
    if let IndexState::Ready(generation, index) = &mut broker.index {
        if generation.revision == revision {
            return;
        }
        let changed = station.changed_since(generation.revision);
        if let Some(outcome) = index.absorb_delta(station, &changed) {
            *generation = IndexGeneration {
                fingerprint,
                revision,
            };
            broker.counters.delta_appends += 1;
            broker.counters.compactions += outcome.compactions;
            broker.counters.segments_live = index.segments() as u64;
            return;
        }
        broker.index = IndexState::Stale;
        broker.counters.segments_live = 0;
    }

    if let IndexState::Unavailable(f) = &broker.index {
        if *f == fingerprint {
            return;
        }
    }

    // 3: adopt a threaded-in index if its station matches ours exactly.
    if broker
        .pending_index
        .as_ref()
        .is_some_and(|handle| *station == handle.station)
    {
        if let Some(handle) = broker.pending_index.take() {
            broker.counters.segments_live = handle.index.segments() as u64;
            broker.index = IndexState::Ready(
                IndexGeneration {
                    fingerprint,
                    revision,
                },
                handle.index,
            );
            return;
        }
    }

    // 4: build-from-scratch decision.
    let entries = station.total_samples();
    let should_build = match broker.index_policy {
        IndexPolicy::Threshold(threshold) => entries >= threshold,
        IndexPolicy::Adaptive(model) => {
            let nodes = station.data_bearing_samples().count();
            broker
                .build_accrual
                .observe(&model, entries, nodes, upcoming_queries);
            broker.build_accrual.should_build(&model, entries)
        }
    };
    if !should_build {
        broker.index = IndexState::Stale;
        return;
    }
    broker.index = match broker.estimator.build_index(station) {
        Some(index) => {
            broker.counters.index_builds += 1;
            broker.counters.segments_live = index.segments() as u64;
            broker.build_accrual = crate::estimator::BuildAccrual::default();
            IndexState::Ready(
                IndexGeneration {
                    fingerprint,
                    revision,
                },
                index,
            )
        }
        None => IndexState::Unavailable(fingerprint),
    };
}

/// Looks an `(α, δ)` request up in the answer cache, if caching is
/// enabled. Only demand-path answers (with a recorded accuracy) are
/// candidates; the guard decides whether re-serving one can undercut the
/// posted price curve.
pub(crate) fn demand_cache_lookup<E, N>(
    broker: &mut DataBroker<E, N>,
    request: &QueryRequest,
) -> Option<PrivateAnswer> {
    let guard = broker.reuse_guard.as_deref()?;
    let lower = request.query.lower().to_bits();
    let upper = request.query.upper().to_bits();
    let requested = Demand::new(request.accuracy.alpha(), request.accuracy.delta());
    let hit = broker
        .cache
        .range((lower, upper, u64::MIN)..=(lower, upper, u64::MAX))
        .map(|(_, answer)| answer)
        .find(|answer| {
            answer.accuracy.is_some_and(|cached| {
                guard.allows_reuse(requested, Demand::new(cached.alpha(), cached.delta()))
            })
        })
        .copied();
    if hit.is_some() {
        broker.counters.cache_hits += 1;
    } else {
        broker.counters.cache_misses += 1;
    }
    hit
}

/// Looks a fixed-ε request up in the answer cache, if caching is
/// enabled. A cached fixed-ε answer is reusable only for the *same*
/// range at the *same* ε, sampled at least as hard as requested — there
/// is no accuracy demand for a guard to price, so the match is exact.
fn fixed_cache_lookup<E, N>(
    broker: &mut DataBroker<E, N>,
    query: RangeQuery,
    epsilon: Epsilon,
    p: f64,
) -> Option<PrivateAnswer> {
    broker.reuse_guard.as_deref()?;
    let lower = query.lower().to_bits();
    let upper = query.upper().to_bits();
    let hit = broker
        .cache
        .range((lower, upper, u64::MIN)..=(lower, upper, u64::MAX))
        .map(|(_, answer)| answer)
        .find(|answer| {
            answer.accuracy.is_none()
                && answer.plan.epsilon.value().to_bits() == epsilon.value().to_bits()
                && answer.plan.probability >= p
        })
        .copied();
    if hit.is_some() {
        broker.counters.cache_hits += 1;
    } else {
        broker.counters.cache_misses += 1;
    }
    hit
}

/// Stores a freshly released answer for future reuse.
pub(crate) fn cache_store<E, N>(broker: &mut DataBroker<E, N>, answer: &PrivateAnswer) {
    if broker.reuse_guard.is_none() {
        return;
    }
    let key = (
        answer.query.lower().to_bits(),
        answer.query.upper().to_bits(),
        answer.plan.epsilon.value().to_bits(),
    );
    broker.cache.entry(key).or_insert(*answer);
}
