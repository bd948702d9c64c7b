//! The data broker (§II-A): the entity that owns sample collection,
//! estimation, perturbation, and privacy accounting.
//!
//! The broker is generic over the network driver (any
//! [`prc_net::network::Network`]) and over the estimator. Besides the
//! one-request [`DataBroker::answer`] pipeline it offers a batched engine,
//! [`DataBroker::answer_batch`], which partitions a request batch by
//! required sampling rate, collects samples once per rate tier, fans the
//! per-tier estimator evaluations out over the shared
//! [`prc_runtime::Runtime`] pool, and
//! serves repeat requests from an arbitrage-consistent answer cache
//! guarded by the pricing layer ([`prc_pricing::reuse`]).
//!
//! # Generational query index
//!
//! When the estimator offers a [`QueryIndex`] (RankCounting's
//! [`crate::estimator::SegmentedRankIndex`]), the broker maintains it as
//! a *generation*: the index plus the station revision it was last
//! synchronized with. A collection round no longer discards the index —
//! before every use the slot is revalidated against the station's
//! revision journal, and a drifted generation absorbs the exact
//! changed-node delta ([`QueryIndex::absorb_delta`]: a linear
//! `O(S_touched + Δ log Δ)` rewrite for nodes that topped up,
//! `O(Δ log Δ)` for replaced ones) instead of rebuilding from scratch.
//! External mutation through
//! [`DataBroker::network_mut`] flows through the same journal, so a
//! stale generation can never serve.
//!
//! Whether to pay for the first build is decided by the [`IndexPolicy`]:
//! the default [`IndexPolicy::Adaptive`] runs a ski-rental accrual over
//! the observed query traffic (build once the scanning it has paid for
//! would have covered a build), while [`IndexPolicy::Threshold`] keeps
//! the legacy fixed sample-count cutover. Indexed and scanned paths are
//! **bit-identical** by construction, so the policy is unobservable in
//! released answers.

use std::collections::BTreeMap;

use prc_dp::budget::{BudgetAccountant, Epsilon};
// prc-lint: allow(B003, reason = "seeded noise-source RNG owned by the broker; every draw from it goes through prc-dp's draw_centered")
use rand::{rngs::StdRng, SeedableRng};

use prc_net::network::{FlatNetwork, Network};
use prc_pricing::engine::PricingEngine;
use prc_pricing::reuse::ReuseGuard;

use crate::error::CoreError;
use crate::estimator::engine::PlanCache;
use crate::estimator::{BuildAccrual, CostModel, QueryIndex, RangeCountEstimator, RankCounting};
use crate::optimizer::{OptimizerConfig, PerturbationPlan};
use crate::pipeline::{PricedAnswer, QuerySession};
use crate::query::{Accuracy, QueryRequest, RangeQuery};

/// How aggressively the broker tops up samples before answering.
///
/// The broker aims its sampling at an internal accuracy strictly tighter
/// than the customer's, leaving the optimizer headroom: it targets
/// `α′ = alpha_fraction·α` and `δ′ = δ + delta_margin·(1 − δ)`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SamplingPolicy {
    /// Fraction of the customer's `α` to aim the sampling stage at, in `(0, 1)`.
    pub alpha_fraction: f64,
    /// Fraction of the remaining confidence gap to claim, in `(0, 1)`.
    pub delta_margin: f64,
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy {
            alpha_fraction: 0.5,
            delta_margin: 0.5,
        }
    }
}

impl SamplingPolicy {
    /// The internal accuracy this policy aims sampling at, for a customer
    /// demand `accuracy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy's fields are outside `(0, 1)`.
    pub fn internal_target(&self, accuracy: Accuracy) -> Accuracy {
        assert!(
            self.alpha_fraction > 0.0 && self.alpha_fraction < 1.0,
            "alpha_fraction must be in (0, 1)"
        );
        assert!(
            self.delta_margin > 0.0 && self.delta_margin < 1.0,
            "delta_margin must be in (0, 1)"
        );
        let alpha = accuracy.alpha() * self.alpha_fraction;
        let delta = accuracy.delta() + self.delta_margin * (1.0 - accuracy.delta());
        // prc-lint: allow(P002, reason = "the asserts above pin both fields into (0, 1); documented panic")
        Accuracy::new(alpha, delta).expect("scaled accuracy stays in (0,1)")
    }
}

/// One differentially private, (α, δ)-approximate answer.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PrivateAnswer {
    /// The queried range.
    pub query: RangeQuery,
    /// The accuracy the customer asked (and pays) for. `None` for answers
    /// released through the fixed-ε experiment hook
    /// ([`DataBroker::answer_with_epsilon`]), which bypasses the `(α, δ)`
    /// demand language entirely — there is no customer accuracy to record.
    pub accuracy: Option<Accuracy>,
    /// The released noisy count — the only value a customer may see.
    pub value: f64,
    /// Broker-side record of the pre-noise sample estimate. **Never
    /// release this to a customer** — it is kept for evaluation and
    /// auditing only.
    pub sample_estimate: f64,
    /// The perturbation plan that produced the answer.
    pub plan: PerturbationPlan,
    /// Upper bound on the released answer's variance: the estimator's
    /// sampling variance bound plus the Laplace noise variance.
    pub variance_bound: f64,
}

/// Per-stage counters accumulated across a broker's lifetime.
///
/// Every pipeline stage reports into these: sample collection (rounds and
/// delivered entries), the answer cache (hits and misses, counted only
/// while a reuse guard is installed), and the release stage. Message and
/// byte traffic lives in the network's [`prc_net::network::CostMeter`];
/// epoch-level consumers combine both views.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StageCounters {
    /// Collection rounds that actually topped the network up.
    pub collection_rounds: u64,
    /// Sample entries delivered to the base station by those rounds.
    pub samples_collected: u64,
    /// Requests served from the answer cache.
    pub cache_hits: u64,
    /// Cache lookups that had to fall through to the full pipeline.
    pub cache_misses: u64,
    /// Answers released (fresh and cached).
    pub answers_released: u64,
    /// Query-index builds from scratch.
    pub index_builds: u64,
    /// Estimates answered through a query index instead of the scan.
    pub indexed_estimates: u64,
    /// Collection deltas absorbed into a live index (each replacing what
    /// would have been a full rebuild).
    #[serde(default)]
    pub delta_appends: u64,
    /// Compaction steps the index applied while absorbing deltas.
    #[serde(default)]
    pub compactions: u64,
    /// Gauge: live segments in the current index (`0` when none).
    #[serde(default)]
    pub segments_live: u64,
    /// Estimates resolved through the engine's boundary resolvers
    /// (per-query `partition_point` or the sorted-batch sweep) — every
    /// indexed estimate since the engine became the index's resolver.
    #[serde(default)]
    pub engine_hits: u64,
    /// Optimizer grid sweeps skipped because the plan cache held a
    /// memoized plan for the same accuracy target, rate tier, and
    /// station revision.
    #[serde(default)]
    pub plan_cache_hits: u64,
    /// Forward-advance steps the sorted-batch sweep took: gallop
    /// doublings when probes are sparse, cache-line strides in dense
    /// merge-scan mode. Diagnostic work meter: depends on how batches
    /// are chunked across the fan-out (like `fan_out_threads`), never
    /// on released answers.
    #[serde(default)]
    pub gallop_steps: u64,
    /// Priced transactions settled into the pricing engine's ledger.
    pub settlements: u64,
    /// Budget reservations rolled back because a later stage failed.
    pub budget_rollbacks: u64,
}

/// Aggregate statistics for one [`DataBroker::answer_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BatchStats {
    /// Requests in the batch.
    pub requests: u64,
    /// Distinct sampling-rate tiers the batch partitioned into.
    pub rate_tiers: u64,
    /// Collection rounds run for this batch.
    pub collection_rounds: u64,
    /// Sample entries delivered during this batch.
    pub samples_collected: u64,
    /// Requests served from the answer cache.
    pub cache_hits: u64,
    /// Chargeable (non-piggybacked) messages the batch added to the meter.
    pub chargeable_messages: u64,
    /// Widest estimator fan-out used by any tier: the chunk lanes its
    /// Estimate stage actually ran on, `1` for a tier answered inline
    /// below [`crate::pipeline::batch::ESTIMATE_FAN_OUT_MIN`] (`0` when
    /// no tier estimated anything).
    pub fan_out_threads: u64,
    /// Query-index builds triggered by this batch.
    pub index_builds: u64,
    /// Estimates in this batch answered through a query index.
    pub indexed_estimates: u64,
    /// Estimates in this batch resolved through the engine's boundary
    /// resolvers.
    #[serde(default)]
    pub engine_hits: u64,
    /// Grid sweeps this batch skipped via the optimizer plan cache.
    #[serde(default)]
    pub plan_cache_hits: u64,
    /// Forward-advance steps the batch's sorted sweeps took — gallop
    /// doublings or dense-mode cache-line strides (diagnostic; varies
    /// with fan-out width).
    #[serde(default)]
    pub gallop_steps: u64,
}

/// The outcome of one batched call: per-request results in input order,
/// plus the batch's stage statistics.
#[derive(Debug)]
pub struct BatchReport {
    /// One result per input request, in input order.
    pub answers: Vec<Result<PrivateAnswer, CoreError>>,
    /// Per-stage statistics for this batch.
    pub stats: BatchStats,
}

impl BatchReport {
    /// The released answers, discarding per-request errors.
    pub fn released(&self) -> impl Iterator<Item = &PrivateAnswer> {
        self.answers.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// Cache key: the queried range and the Laplace budget of the stored
/// plan, all as exact bit patterns (grouped by range, so lookups scan the
/// contiguous key span of one range).
pub(crate) type CacheKey = (u64, u64, u64);

/// Snapshot of the station state a query index was built against: the
/// uniform sampling probability (as exact bits, `None` when the station
/// is heterogeneous) and the total sample count. Used for the
/// [`IndexState::Unavailable`] memo: while it matches, re-attempting a
/// build at this station state is pointless.
pub(crate) type IndexFingerprint = (Option<u64>, usize);

/// The delta lineage of a live index: the station state it was last
/// synchronized with. `revision` is the station's journal counter —
/// every mutation flows through [`prc_net::base_station::BaseStation::ingest`],
/// so an unchanged revision certifies byte-identical sample state, and a
/// drifted one names the exact changed-node delta to absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexGeneration {
    pub fingerprint: IndexFingerprint,
    pub revision: u64,
}

/// The broker's generational query-index slot.
#[derive(Debug, Default)]
pub(crate) enum IndexState {
    /// No index and no knowledge of the station (initial state).
    #[default]
    Stale,
    /// The station was inspected at this fingerprint and no index could
    /// be built; don't retry until the station changes.
    Unavailable(IndexFingerprint),
    /// A live index synchronized with this generation. On revision
    /// drift the index absorbs the delta and the generation advances —
    /// the index is discarded only when absorption is impossible.
    Ready(IndexGeneration, Box<dyn QueryIndex>),
}

/// When the broker pays for a query-index build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexPolicy {
    /// Ski-rental: keep scanning while accruing the per-query saving an
    /// index would have delivered; build once the foregone saving covers
    /// the build cost (2-competitive for any query arrival sequence).
    /// The decision depends only on observed query counts and the
    /// station's shape — never on wall-clock time.
    Adaptive(CostModel),
    /// Legacy fixed cutover: build whenever the station holds at least
    /// this many samples (`0` always builds, `usize::MAX` never).
    Threshold(usize),
}

impl Default for IndexPolicy {
    fn default() -> Self {
        IndexPolicy::Adaptive(CostModel::default())
    }
}

/// A detached query index plus the full station state it was
/// synchronized with, for threading across brokers (e.g. the continuous
/// monitor's per-epoch brokers).
///
/// Revision counters are per-station-instance and not comparable across
/// brokers, so a handle carries the *entire* station as its fingerprint:
/// adoption requires the candidate broker's station to compare equal,
/// structurally — samples, populations, probabilities, and journal. That
/// is the strongest honest key; anything weaker could adopt an index for
/// a station it does not describe.
#[derive(Debug)]
pub struct IndexCacheHandle {
    pub(crate) station: prc_net::base_station::BaseStation,
    pub(crate) index: Box<dyn QueryIndex>,
}

/// The data broker: answers `Λ(α, δ)` requests over any [`Network`].
///
/// Every entry point — [`DataBroker::answer`], [`DataBroker::answer_as`],
/// [`DataBroker::answer_batch`], [`DataBroker::answer_with_epsilon`] — is
/// a thin wrapper over the staged [`crate::pipeline`] session:
/// Admit (quote + cache) → Collect (sample top-up per the
/// [`SamplingPolicy`]) → Reserve (plan + two-phase budget hold) →
/// Estimate → Perturb (`Lap(Δγ̂/ε)`) → Settle (commit, cache, ledger).
///
/// An optional [`BudgetAccountant`] enforces a total privacy cap across
/// queries (sequential composition of the *effective* budgets). An
/// optional answer cache ([`DataBroker::enable_answer_cache`]) re-serves
/// prior noisy answers when the pricing layer's [`ReuseGuard`] confirms
/// the reuse cannot undercut the posted price curve; re-releasing an
/// already-released value is privacy-free (post-processing), so cache
/// hits spend no budget.
#[derive(Debug)]
pub struct DataBroker<E = RankCounting, N = FlatNetwork> {
    pub(crate) network: N,
    pub(crate) estimator: E,
    pub(crate) optimizer_config: OptimizerConfig,
    pub(crate) sampling_policy: SamplingPolicy,
    pub(crate) accountant: Option<BudgetAccountant>,
    pub(crate) rng: StdRng,
    pub(crate) reuse_guard: Option<Box<dyn ReuseGuard>>,
    pub(crate) pricing: Option<Box<dyn PricingEngine>>,
    pub(crate) cache: BTreeMap<CacheKey, PrivateAnswer>,
    pub(crate) counters: StageCounters,
    pub(crate) index: IndexState,
    pub(crate) index_policy: IndexPolicy,
    pub(crate) build_accrual: BuildAccrual,
    pub(crate) pending_index: Option<IndexCacheHandle>,
    pub(crate) plan_cache: PlanCache,
}

impl<N: Network> DataBroker<RankCounting, N> {
    /// Creates a broker using the paper's RankCounting estimator.
    pub fn new(network: N, seed: u64) -> Self {
        DataBroker::with_estimator(network, RankCounting, seed)
    }
}

impl<E: RangeCountEstimator, N: Network> DataBroker<E, N> {
    /// Creates a broker with a custom estimator.
    pub fn with_estimator(network: N, estimator: E, seed: u64) -> Self {
        DataBroker {
            network,
            estimator,
            optimizer_config: OptimizerConfig::default(),
            sampling_policy: SamplingPolicy::default(),
            accountant: None,
            rng: StdRng::seed_from_u64(seed ^ 0xb5ad_4ece_da1c_e2a9),
            reuse_guard: None,
            pricing: None,
            cache: BTreeMap::new(),
            counters: StageCounters::default(),
            index: IndexState::Stale,
            index_policy: IndexPolicy::default(),
            build_accrual: BuildAccrual::default(),
            pending_index: None,
            plan_cache: PlanCache::default(),
        }
    }

    /// Replaces the index build policy (resetting the slot and any
    /// accrued build credit).
    pub fn set_index_policy(&mut self, policy: IndexPolicy) {
        self.index_policy = policy;
        self.build_accrual = BuildAccrual::default();
        self.index = IndexState::Stale;
    }

    /// The current index build policy.
    pub fn index_policy(&self) -> IndexPolicy {
        self.index_policy
    }

    /// Compatibility shim for the pre-cost-model API: installs
    /// [`IndexPolicy::Threshold`] at the given sample count (`0` always
    /// builds, `usize::MAX` disables indexing). New code should use
    /// [`DataBroker::set_index_policy`]; the adaptive default needs no
    /// tuning.
    pub fn set_index_threshold(&mut self, threshold: usize) {
        self.set_index_policy(IndexPolicy::Threshold(threshold));
    }

    /// Detaches the current index (if one is live) together with a full
    /// clone of the station it answers for, so a coordinator can offer
    /// it to another broker over the same data via
    /// [`DataBroker::install_index_cache`]. The slot reverts to
    /// [`IndexState::Stale`].
    pub fn take_index_cache(&mut self) -> Option<IndexCacheHandle> {
        match std::mem::replace(&mut self.index, IndexState::Stale) {
            IndexState::Ready(_, index) => Some(IndexCacheHandle {
                station: self.network.station().clone(),
                index,
            }),
            other => {
                self.index = other;
                None
            }
        }
    }

    /// Offers a detached index to this broker. The handle is held until
    /// the broker's station structurally equals the handle's — at which
    /// point the index is adopted in place of a fresh build (it is
    /// bit-identical by the [`QueryIndex`] contract). A handle that
    /// never matches is simply never used.
    pub fn install_index_cache(&mut self, handle: IndexCacheHandle) {
        self.pending_index = Some(handle);
    }

    /// Replaces the optimizer configuration (discarding memoized plans:
    /// the grid sweep is a function of the config).
    pub fn set_optimizer_config(&mut self, config: OptimizerConfig) {
        self.optimizer_config = config;
        self.plan_cache.clear();
    }

    /// Replaces the sampling policy.
    pub fn set_sampling_policy(&mut self, policy: SamplingPolicy) {
        self.sampling_policy = policy;
    }

    /// Installs a total privacy budget; subsequent answers spend their
    /// effective `ε′` against it.
    pub fn set_privacy_budget(&mut self, total: Epsilon) {
        self.accountant = Some(BudgetAccountant::new(total));
    }

    /// The privacy accountant, if a budget was installed.
    pub fn accountant(&self) -> Option<&BudgetAccountant> {
        self.accountant.as_ref()
    }

    /// Installs an existing accountant (e.g. a session-scoped budget a
    /// monitor threads through its per-epoch brokers); subsequent answers
    /// reserve and commit their effective `ε′` against it.
    pub fn install_accountant(&mut self, accountant: BudgetAccountant) {
        self.accountant = Some(accountant);
    }

    /// Removes and returns the accountant, leaving the broker unbudgeted.
    pub fn take_accountant(&mut self) -> Option<BudgetAccountant> {
        self.accountant.take()
    }

    /// Installs a pricing engine. With one installed,
    /// [`DataBroker::answer_as`] quotes every admitted request against the
    /// posted curve (refusing arbitrageable demands) and settles each
    /// released answer into the engine's ledger.
    pub fn enable_pricing(&mut self, engine: Box<dyn PricingEngine>) {
        self.pricing = Some(engine);
    }

    /// The pricing engine, if one is installed.
    pub fn pricing(&self) -> Option<&dyn PricingEngine> {
        self.pricing.as_deref()
    }

    /// Enables the answer cache behind a pricing-layer reuse guard.
    ///
    /// With a guard installed, [`DataBroker::answer`] and
    /// [`DataBroker::answer_batch`] re-serve a previously released answer
    /// for a request over the same range whenever the guard allows the
    /// reuse — i.e. the pricing layer confirms that handing out the
    /// stored answer at the new request's posted price cannot undercut
    /// the price curve. Without a guard (the default) every request runs
    /// the full pipeline.
    pub fn enable_answer_cache(&mut self, guard: Box<dyn ReuseGuard>) {
        self.reuse_guard = Some(guard);
    }

    /// Drops the reuse guard and clears all cached answers.
    pub fn disable_answer_cache(&mut self) {
        self.reuse_guard = None;
        self.cache.clear();
    }

    /// Number of answers currently cached.
    pub fn cached_answers(&self) -> usize {
        self.cache.len()
    }

    /// Per-stage counters accumulated so far.
    pub fn counters(&self) -> StageCounters {
        self.counters
    }

    /// Resets the per-stage counters to zero (the cache is kept).
    pub fn reset_counters(&mut self) {
        self.counters = StageCounters::default();
    }

    /// The underlying network (cost-meter and ground-truth access).
    pub fn network(&self) -> &N {
        &self.network
    }

    /// Mutable access to the underlying network (failure injection etc.).
    pub fn network_mut(&mut self) -> &mut N {
        &mut self.network
    }

    /// Answers one request through the full two-phase pipeline, consulting
    /// the answer cache first when one is enabled.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InfeasibleAccuracy`] — even sampling everything
    ///   cannot meet the demand;
    /// * [`CoreError::Dp`] — the privacy budget is exhausted;
    /// * [`CoreError::NoSamples`] — the network delivered nothing (e.g.
    ///   every node dead).
    pub fn answer(&mut self, request: &QueryRequest) -> Result<PrivateAnswer, CoreError> {
        QuerySession::new(self)
            .run(request)
            .map(|priced| priced.answer)
    }

    /// Answers one request as a *priced transaction* for a named buyer.
    ///
    /// Requires a pricing engine ([`DataBroker::enable_pricing`]): the
    /// Admit stage quotes the demand against the posted curve (refusing
    /// invalid or arbitrageable demands before any budget is touched),
    /// and the Settle stage records the trade — price, noise variance,
    /// and rendered plan — into the engine's ledger.
    ///
    /// # Errors
    ///
    /// Everything [`DataBroker::answer`] returns, plus
    /// [`CoreError::Pricing`] when the engine refuses the quote.
    pub fn answer_as(
        &mut self,
        buyer: &str,
        request: &QueryRequest,
    ) -> Result<PricedAnswer, CoreError> {
        QuerySession::for_buyer(self, buyer).run(request)
    }

    /// Answers a batch of requests through the batched engine.
    ///
    /// The batch is partitioned by each request's *required sampling
    /// rate*; rates are visited in ascending order, so every tier's
    /// queries are evaluated right after the single collection round that
    /// tops the network up to that tier (lower tiers are answered at
    /// their own, cheaper rate — exactly what a sorted sequence of
    /// [`DataBroker::answer`] calls would do). Within a tier, cache
    /// lookups, perturbation planning, and budget accounting run
    /// sequentially in input order; the estimator evaluations fan out
    /// over the shared [`prc_runtime::Runtime`] pool against the shared
    /// base-station
    /// sample; noise is then drawn sequentially in input order, keeping
    /// the whole batch deterministic in the broker's seed regardless of
    /// thread scheduling.
    ///
    /// Per-request failures (infeasible accuracy, exhausted budget) land
    /// in that request's slot of [`BatchReport::answers`]; the rest of
    /// the batch proceeds.
    pub fn answer_batch(&mut self, requests: &[QueryRequest]) -> BatchReport
    where
        E: Sync,
    {
        crate::pipeline::batch::run_batch(self, requests)
    }

    /// Experiment hook: answers with a *fixed* Laplace budget `ε` instead
    /// of the optimizer (used by the Fig. 5 / Fig. 6 reproductions, which
    /// sweep ε directly). Samples are topped up to `p` first; sensitivity
    /// follows the configured policy. The released answer carries
    /// `accuracy: None` — there is no `(α, δ)` demand to record — and a
    /// degenerate but fully finite [`PerturbationPlan`].
    ///
    /// # Errors
    ///
    /// Propagates sampling, sensitivity, and budget errors.
    pub fn answer_with_epsilon(
        &mut self,
        query: RangeQuery,
        epsilon: Epsilon,
        p: f64,
    ) -> Result<PrivateAnswer, CoreError> {
        QuerySession::new(self).run_fixed(query, epsilon, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::BasicCounting;
    use prc_net::network::ThreadedNetwork;
    use prc_pricing::functions::InverseVariancePricing;
    use prc_pricing::reuse::PostedPriceReuse;
    use prc_pricing::variance::ChebyshevVariance;

    fn partitions(k: usize, per_node: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|i| (0..per_node).map(|j| (i * per_node + j) as f64).collect())
            .collect()
    }

    fn network(k: usize, per_node: usize, seed: u64) -> FlatNetwork {
        FlatNetwork::from_partitions(partitions(k, per_node), seed)
    }

    fn request(l: f64, u: f64, a: f64, d: f64) -> QueryRequest {
        QueryRequest::new(RangeQuery::new(l, u).unwrap(), Accuracy::new(a, d).unwrap())
    }

    fn guard(n: usize) -> Box<dyn ReuseGuard> {
        let model = ChebyshevVariance::new(n);
        Box::new(PostedPriceReuse::new(
            InverseVariancePricing::new(1e7, model),
            model,
        ))
    }

    #[test]
    fn end_to_end_answer_meets_accuracy_often() {
        // Definition 2.2: |answer − truth| ≤ αn with probability ≥ δ.
        let n_total = 10_000.0;
        let req = request(2_000.0, 7_000.0, 0.05, 0.8);
        let truth = 5_001.0;
        let trials = 300;
        let mut hits = 0;
        for seed in 0..trials {
            let mut broker = DataBroker::new(network(10, 1_000, seed), seed);
            let answer = broker.answer(&req).unwrap();
            if (answer.value - truth).abs() <= 0.05 * n_total {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!(
            rate >= 0.8,
            "accuracy guarantee violated empirically: hit rate {rate}"
        );
    }

    #[test]
    fn answer_reports_consistent_plan() {
        let mut broker = DataBroker::new(network(8, 500, 3), 3);
        let req = request(100.0, 900.0, 0.1, 0.6);
        let answer = broker.answer(&req).unwrap();
        assert_eq!(answer.query, req.query);
        assert_eq!(answer.accuracy, Some(req.accuracy));
        assert!(answer.plan.alpha_prime < req.accuracy.alpha());
        assert!(answer.plan.delta_prime > req.accuracy.delta());
        assert!(answer.variance_bound > 0.0);
        assert!((answer.value - answer.sample_estimate).abs() < answer.plan.noise_scale * 60.0);
    }

    #[test]
    fn broker_tops_up_samples_on_demand() {
        let mut broker = DataBroker::new(network(5, 2_000, 1), 1);
        assert_eq!(broker.network().station().total_samples(), 0);
        let loose = request(0.0, 10_000.0, 0.2, 0.5);
        broker.answer(&loose).unwrap();
        let after_loose = broker.network().station().effective_probability();
        assert!(after_loose > 0.0);
        // A stricter query forces a higher sampling probability.
        let strict = request(0.0, 10_000.0, 0.03, 0.9);
        broker.answer(&strict).unwrap();
        let after_strict = broker.network().station().effective_probability();
        assert!(after_strict > after_loose);
        // The counters saw both collection rounds.
        let counters = broker.counters();
        assert!(counters.collection_rounds >= 2);
        assert!(counters.samples_collected > 0);
        assert_eq!(counters.answers_released, 2);
    }

    #[test]
    fn budget_accounting_blocks_overspend() {
        let mut broker = DataBroker::new(network(5, 2_000, 2), 2);
        let req = request(0.0, 5_000.0, 0.1, 0.6);
        // Learn the per-answer cost, then install a budget for ~2 answers.
        let probe = broker.answer(&req).unwrap();
        let per_query = probe.plan.effective_epsilon.value();
        broker.set_privacy_budget(Epsilon::new(per_query * 2.5).unwrap());
        broker.answer(&req).unwrap();
        broker.answer(&req).unwrap();
        let err = broker.answer(&req).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Dp(prc_dp::DpError::BudgetExhausted { .. })
        ));
        let acc = broker.accountant().unwrap();
        assert_eq!(acc.operations(), 2);
    }

    #[test]
    fn works_with_basic_counting_estimator() {
        let mut broker = DataBroker::with_estimator(network(5, 1_000, 4), BasicCounting, 4);
        let answer = broker.answer(&request(0.0, 2_500.0, 0.1, 0.6)).unwrap();
        assert!(answer.value.is_finite());
        // BasicCounting's variance bound dominates RankCounting's here.
        assert!(answer.variance_bound > 0.0);
    }

    #[test]
    fn fixed_epsilon_hook_controls_noise_scale() {
        let mut broker = DataBroker::new(network(5, 1_000, 5), 5);
        let q = RangeQuery::new(0.0, 2_500.0).unwrap();
        let answer = broker
            .answer_with_epsilon(q, Epsilon::new(2.0).unwrap(), 0.4)
            .unwrap();
        assert!((answer.plan.probability - 0.4).abs() < 1e-12);
        // Δ = 1/p = 2.5, b = Δ/ε = 1.25.
        assert!((answer.plan.noise_scale - 1.25).abs() < 1e-12);
        assert!(answer.plan.effective_epsilon.value() < 2.0);
        assert!(broker
            .answer_with_epsilon(q, Epsilon::new(1.0).unwrap(), 0.0)
            .is_err());
    }

    #[test]
    fn answers_are_noisy_but_centred() {
        let req = request(1_000.0, 3_000.0, 0.08, 0.6);
        let truth = 2_001.0;
        let trials = 400;
        let mut sum = 0.0;
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..trials {
            let mut broker = DataBroker::new(network(4, 1_000, seed + 100), seed + 100);
            let a = broker.answer(&req).unwrap();
            sum += a.value;
            distinct.insert(a.value.to_bits());
        }
        assert!(distinct.len() > trials as usize - 5, "answers must vary");
        let mean = sum / trials as f64;
        assert!(
            (mean - truth).abs() < 25.0,
            "released answers should be centred on the truth: mean {mean}"
        );
    }

    #[test]
    fn empty_network_data_errors() {
        let mut broker = DataBroker::new(FlatNetwork::from_partitions(vec![vec![]], 0), 0);
        let err = broker.answer(&request(0.0, 1.0, 0.1, 0.5)).unwrap_err();
        assert!(matches!(err, CoreError::NoSamples));
    }

    #[test]
    fn sampling_policy_targets_are_strictly_tighter() {
        let accuracy = Accuracy::new(0.1, 0.6).unwrap();
        let target = SamplingPolicy::default().internal_target(accuracy);
        assert!(target.alpha() < accuracy.alpha());
        assert!(target.delta() > accuracy.delta());
    }

    #[test]
    #[should_panic(expected = "alpha_fraction")]
    fn bad_sampling_policy_panics() {
        let policy = SamplingPolicy {
            alpha_fraction: 1.5,
            delta_margin: 0.5,
        };
        policy.internal_target(Accuracy::new(0.1, 0.5).unwrap());
    }

    #[test]
    fn broker_runs_over_threaded_networks() {
        let net = ThreadedNetwork::from_partitions(partitions(6, 500), 11);
        let mut broker = DataBroker::new(net, 11);
        let answer = broker.answer(&request(500.0, 2_500.0, 0.1, 0.6)).unwrap();
        assert!(answer.value.is_finite());
        assert_eq!(broker.network().node_count(), 6);
    }

    #[test]
    fn cache_serves_identical_requests_and_skips_budget() {
        let mut broker = DataBroker::new(network(5, 2_000, 6), 6);
        broker.enable_answer_cache(guard(10_000));
        let req = request(0.0, 5_000.0, 0.1, 0.6);
        let first = broker.answer(&req).unwrap();
        broker
            .set_privacy_budget(Epsilon::new(first.plan.effective_epsilon.value() * 0.5).unwrap());
        // A repeat request is served from cache: identical bits, no spend
        // against the (deliberately too small) budget.
        let second = broker.answer(&req).unwrap();
        assert_eq!(first.value.to_bits(), second.value.to_bits());
        assert_eq!(broker.accountant().unwrap().operations(), 0);
        assert_eq!(broker.counters().cache_hits, 1);
        assert_eq!(broker.cached_answers(), 1);
        // A different demand over the same range is answered fresh.
        let looser = request(0.0, 5_000.0, 0.2, 0.5);
        let third = broker.answer(&looser).unwrap();
        assert_ne!(third.value.to_bits(), first.value.to_bits());
        assert_eq!(broker.counters().cache_misses, 2);
        // Disabling clears the cache.
        broker.disable_answer_cache();
        assert_eq!(broker.cached_answers(), 0);
    }

    #[test]
    fn answer_batch_matches_request_order_and_counts_stages() {
        let workload: Vec<QueryRequest> = vec![
            request(0.0, 2_500.0, 0.1, 0.6),
            request(2_500.0, 7_500.0, 0.05, 0.8),
            request(0.0, 2_500.0, 0.1, 0.6), // duplicate of #0
            request(5_000.0, 9_000.0, 0.2, 0.5),
        ];
        let mut broker = DataBroker::new(network(10, 1_000, 8), 8);
        broker.enable_answer_cache(guard(10_000));
        let report = broker.answer_batch(&workload);
        assert_eq!(report.answers.len(), 4);
        assert_eq!(report.stats.requests, 4);
        assert!(report.stats.rate_tiers >= 2);
        assert_eq!(report.stats.cache_hits, 1);
        assert!(report.stats.samples_collected > 0);
        assert!(report.stats.chargeable_messages > 0);
        // Every tier is far below the fan-out cutoff, so each ran inline.
        assert_eq!(report.stats.fan_out_threads, 1);
        for (i, result) in report.answers.iter().enumerate() {
            let answer = result.as_ref().unwrap();
            assert_eq!(answer.query, workload[i].query, "slot {i} out of order");
        }
        // The duplicate was served the cached bits.
        let a0 = report.answers[0].as_ref().unwrap();
        let a2 = report.answers[2].as_ref().unwrap();
        assert_eq!(a0.value.to_bits(), a2.value.to_bits());
    }

    #[test]
    fn answer_batch_fans_out_only_above_the_cutoff() {
        use crate::pipeline::batch::ESTIMATE_FAN_OUT_MIN;
        // One rate tier of `count` distinct ranges; with a one-segment
        // index each query declares one sorted-array search.
        let tier = |count: usize| -> Vec<QueryRequest> {
            (0..count)
                .map(|i| request(i as f64, 5_000.0 + i as f64, 0.1, 0.6))
                .collect()
        };
        let run = |workload: &[QueryRequest]| {
            let mut broker = DataBroker::new(network(5, 2_000, 13), 13);
            broker.set_index_threshold(0);
            let report = broker.answer_batch(workload);
            assert_eq!(report.stats.rate_tiers, 1);
            assert_eq!(report.stats.indexed_estimates, workload.len() as u64);
            report.stats.fan_out_threads
        };
        assert_eq!(run(&tier(ESTIMATE_FAN_OUT_MIN - 1)), 1);
        let above = 2 * ESTIMATE_FAN_OUT_MIN;
        assert_eq!(
            run(&tier(above)),
            prc_runtime::Runtime::global().lanes_for(above) as u64
        );
    }

    #[test]
    fn answer_batch_is_deterministic_across_drivers() {
        let workload: Vec<QueryRequest> = vec![
            request(0.0, 2_000.0, 0.15, 0.5),
            request(1_000.0, 3_000.0, 0.08, 0.7),
            request(500.0, 3_500.0, 0.15, 0.5),
        ];
        let run_flat = |seed: u64| {
            let mut broker =
                DataBroker::new(FlatNetwork::from_partitions(partitions(6, 700), seed), seed);
            broker
                .answer_batch(&workload)
                .answers
                .into_iter()
                .map(|r| r.unwrap().value.to_bits())
                .collect::<Vec<u64>>()
        };
        let run_threaded = |seed: u64| {
            let net = ThreadedNetwork::from_partitions(partitions(6, 700), seed);
            let mut broker = DataBroker::new(net, seed);
            broker
                .answer_batch(&workload)
                .answers
                .into_iter()
                .map(|r| r.unwrap().value.to_bits())
                .collect::<Vec<u64>>()
        };
        // Same seed: byte-identical answers, same driver or not.
        assert_eq!(run_flat(9), run_flat(9));
        assert_eq!(run_flat(9), run_threaded(9));
        // Different seed: different noise.
        assert_ne!(run_flat(9), run_flat(10));
    }

    #[test]
    fn answer_batch_reports_per_request_budget_errors() {
        let mut broker = DataBroker::new(network(5, 2_000, 12), 12);
        let req = request(0.0, 5_000.0, 0.1, 0.6);
        let probe = broker.answer(&req).unwrap();
        let per_query = probe.plan.effective_epsilon.value();
        broker.set_privacy_budget(Epsilon::new(per_query * 1.5).unwrap());
        let report = broker.answer_batch(&[req; 3]);
        let ok = report.answers.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 1, "budget covers exactly one fresh answer");
        assert!(report
            .answers
            .iter()
            .any(|r| matches!(r, Err(CoreError::Dp(_)))));
        assert_eq!(report.released().count(), 1);
    }

    #[test]
    fn answer_batch_on_empty_network_errors_every_slot() {
        let mut broker = DataBroker::new(FlatNetwork::from_partitions(vec![vec![]], 0), 0);
        let report = broker.answer_batch(&[request(0.0, 1.0, 0.1, 0.5)]);
        assert!(matches!(report.answers[0], Err(CoreError::NoSamples)));
        assert_eq!(report.stats.rate_tiers, 0);
    }

    #[test]
    fn indexed_batches_release_the_same_bits_as_scan_batches() {
        let workload: Vec<QueryRequest> = vec![
            request(0.0, 2_000.0, 0.15, 0.5),
            request(1_000.0, 3_000.0, 0.08, 0.7),
            request(500.0, 3_500.0, 0.15, 0.5),
            request(-10.0, -1.0, 0.15, 0.5),      // below support
            request(1_000.0, 3_000.0, 0.08, 0.7), // duplicate
        ];
        let run = |threshold: usize| {
            let mut broker = DataBroker::new(network(8, 700, 21), 21);
            broker.set_index_threshold(threshold);
            let report = broker.answer_batch(&workload);
            let bits: Vec<u64> = report
                .answers
                .iter()
                .map(|r| r.as_ref().unwrap().value.to_bits())
                .collect();
            (bits, report.stats)
        };
        let (indexed_bits, indexed_stats) = run(0);
        let (scan_bits, scan_stats) = run(usize::MAX);
        assert_eq!(indexed_bits, scan_bits, "index changed released bits");
        assert!(indexed_stats.index_builds >= 1);
        assert!(indexed_stats.indexed_estimates >= workload.len() as u64 - 1);
        assert_eq!(scan_stats.index_builds, 0);
        assert_eq!(scan_stats.indexed_estimates, 0);
    }

    #[test]
    fn single_answers_use_the_index_and_match_scan() {
        let req = request(200.0, 3_300.0, 0.1, 0.6);
        let run = |threshold: usize| {
            let mut broker = DataBroker::new(network(6, 800, 33), 33);
            broker.set_index_threshold(threshold);
            let answer = broker.answer(&req).unwrap();
            (answer.value.to_bits(), broker.counters())
        };
        let (indexed, ic) = run(0);
        let (scanned, sc) = run(usize::MAX);
        assert_eq!(indexed, scanned);
        assert_eq!(ic.index_builds, 1);
        assert_eq!(ic.indexed_estimates, 1);
        assert_eq!(sc.index_builds, 0);
        assert_eq!(sc.indexed_estimates, 0);
    }

    #[test]
    fn collection_rounds_absorb_into_the_index() {
        let mut broker = DataBroker::new(network(5, 2_000, 7), 7);
        broker.set_index_threshold(0);
        broker.answer(&request(0.0, 10_000.0, 0.2, 0.5)).unwrap();
        let after_first = broker.counters();
        assert_eq!(after_first.index_builds, 1);
        assert!(after_first.segments_live >= 1);
        // Same epoch: a second loose query reuses the built index.
        broker.answer(&request(0.0, 4_000.0, 0.2, 0.5)).unwrap();
        assert_eq!(broker.counters().index_builds, 1);
        assert_eq!(broker.counters().indexed_estimates, 2);
        // A stricter query forces a top-up; the index absorbs the round's
        // delta instead of rebuilding from scratch.
        broker.answer(&request(0.0, 10_000.0, 0.03, 0.9)).unwrap();
        let after_strict = broker.counters();
        assert!(after_strict.collection_rounds > after_first.collection_rounds);
        assert_eq!(after_strict.index_builds, 1, "delta absorbed, not rebuilt");
        assert!(after_strict.delta_appends >= 1);
        assert_eq!(after_strict.indexed_estimates, 3);
        assert!(after_strict.segments_live >= 1);
    }

    #[test]
    fn small_stations_stay_on_the_scan_path() {
        // The adaptive default is a ski-rental: a lone query over a tiny
        // station never accrues enough foregone scan cost to pay for a
        // build, so the broker stays on the scan path.
        let mut broker = DataBroker::new(network(3, 50, 9), 9);
        assert!(matches!(broker.index_policy(), IndexPolicy::Adaptive(_)));
        broker.answer(&request(0.0, 100.0, 0.2, 0.5)).unwrap();
        assert_eq!(broker.counters().index_builds, 0);
        assert_eq!(broker.counters().indexed_estimates, 0);
        assert_eq!(broker.counters().segments_live, 0);
    }

    #[test]
    fn adaptive_policy_buys_the_index_once_queries_amortize_it() {
        // Wide fan-out makes the per-query scan saving large relative to
        // the one-off build cost, so a big batch pays for the index up
        // front under the default cost model.
        let req = request(0.0, 10_000.0, 0.2, 0.5);
        let mut broker = DataBroker::new(network(64, 100, 13), 13);
        broker.answer(&req).unwrap();
        assert_eq!(broker.counters().index_builds, 0, "one query rents");
        let report = broker.answer_batch(&vec![req; 256]);
        assert!(report.answers.iter().all(Result::is_ok));
        assert_eq!(broker.counters().index_builds, 1, "a batch buys");
        assert!(broker.counters().indexed_estimates >= 256);
        assert!(broker.counters().segments_live >= 1);
    }

    #[test]
    fn twin_brokers_adopt_a_detached_index_instead_of_rebuilding() {
        let req = request(0.0, 4_000.0, 0.15, 0.5);
        let run = |adopt: Option<IndexCacheHandle>| {
            let mut broker = DataBroker::new(network(6, 800, 21), 21);
            broker.set_index_threshold(0);
            if let Some(handle) = adopt {
                broker.install_index_cache(handle);
            }
            let bits = broker.answer(&req).unwrap().value.to_bits();
            (bits, broker.counters())
        };
        // A donor over the identical network builds once, then detaches
        // its index together with the station it answers for.
        let mut donor = DataBroker::new(network(6, 800, 21), 21);
        donor.set_index_threshold(0);
        donor.answer(&req).unwrap();
        let handle = donor.take_index_cache().expect("donor built an index");
        assert!(donor.take_index_cache().is_none(), "slot reverts to stale");

        let (fresh_bits, fresh) = run(None);
        let (adopted_bits, adopted) = run(Some(handle));
        assert_eq!(adopted_bits, fresh_bits, "adoption changed released bits");
        assert_eq!(fresh.index_builds, 1);
        assert_eq!(adopted.index_builds, 0, "handle adopted, build skipped");
        assert_eq!(adopted.indexed_estimates, 1);
        assert!(adopted.segments_live >= 1);
    }

    #[test]
    fn mismatched_index_handles_are_never_adopted() {
        let req = request(0.0, 4_000.0, 0.15, 0.5);
        let mut donor = DataBroker::new(network(6, 800, 21), 21);
        donor.set_index_threshold(0);
        donor.answer(&req).unwrap();
        let handle = donor.take_index_cache().expect("donor built an index");
        // A different seed collects a different station, so the handle's
        // fingerprint never matches and the broker builds for itself.
        let mut other = DataBroker::new(network(6, 800, 22), 22);
        other.set_index_threshold(0);
        other.install_index_cache(handle);
        other.answer(&req).unwrap();
        assert_eq!(other.counters().index_builds, 1);
    }

    #[test]
    fn collection_deltas_evict_only_touched_cached_answers() {
        let mut broker = DataBroker::new(network(6, 800, 31), 31);
        broker.enable_answer_cache(guard(4_800));
        let touched = request(0.0, 4_000.0, 0.2, 0.5);
        let untouched = request(-10.0, -1.0, 0.2, 0.5);
        let first_touched = broker.answer(&touched).unwrap();
        let first_untouched = broker.answer(&untouched).unwrap();
        assert_eq!(broker.cached_answers(), 2);

        // A stricter query forces a top-up: every node's fresh samples
        // overlap the data's value range, so the in-range answer is
        // evicted while the below-support one survives the epoch.
        broker.answer(&request(0.0, 4_800.0, 0.03, 0.9)).unwrap();
        let second_untouched = broker.answer(&untouched).unwrap();
        assert_eq!(
            second_untouched.value.to_bits(),
            first_untouched.value.to_bits(),
            "untouched range must survive as a cache hit"
        );
        assert_eq!(broker.counters().cache_hits, 1);
        let second_touched = broker.answer(&touched).unwrap();
        assert_ne!(
            second_touched.value.to_bits(),
            first_touched.value.to_bits(),
            "touched range must be re-answered fresh"
        );
        assert_eq!(broker.counters().cache_hits, 1);
    }

    #[test]
    fn surviving_cache_hits_stay_budget_free_across_rounds() {
        let mut broker = DataBroker::new(network(6, 800, 37), 37);
        broker.enable_answer_cache(guard(4_800));
        let untouched = request(-10.0, -1.0, 0.2, 0.5);
        let first = broker.answer(&untouched).unwrap();
        broker.answer(&request(0.0, 4_800.0, 0.03, 0.9)).unwrap();

        // Budget accounting is unchanged by eviction: the surviving
        // answer is re-served as post-processing, spending nothing even
        // against a budget too small for a fresh release.
        broker
            .set_privacy_budget(Epsilon::new(first.plan.effective_epsilon.value() * 0.1).unwrap());
        let replay = broker.answer(&untouched).unwrap();
        assert_eq!(replay.value.to_bits(), first.value.to_bits());
        assert_eq!(broker.accountant().unwrap().operations(), 0);
    }

    #[test]
    fn fixed_epsilon_hook_matches_bits_across_paths() {
        let q = RangeQuery::new(0.0, 2_500.0).unwrap();
        let run = |threshold: usize| {
            let mut broker = DataBroker::new(network(5, 1_000, 5), 5);
            broker.set_index_threshold(threshold);
            broker
                .answer_with_epsilon(q, Epsilon::new(2.0).unwrap(), 0.4)
                .unwrap()
                .value
                .to_bits()
        };
        assert_eq!(run(0), run(usize::MAX));
    }

    #[test]
    fn estimators_without_an_index_never_build_one() {
        let mut broker = DataBroker::with_estimator(network(5, 1_000, 4), BasicCounting, 4);
        broker.set_index_threshold(0);
        broker.answer(&request(0.0, 2_500.0, 0.1, 0.6)).unwrap();
        assert_eq!(broker.counters().index_builds, 0);
        assert_eq!(broker.counters().indexed_estimates, 0);
    }
}
