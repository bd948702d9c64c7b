//! Network drivers and communication-cost accounting.
//!
//! [`FlatNetwork`] implements the paper's flat model — every node talks
//! directly to the base station — with a deterministic, single-threaded
//! round protocol. [`ThreadedNetwork`] runs the same protocol with its
//! per-node sampling fanned out over the shared [`prc_runtime::Runtime`]
//! pool, producing byte-identical sample state for the same seed
//! (per-node RNGs make the outcome independent of scheduling). Both
//! drivers meter traffic through a shared [`CostMeter`].

use std::sync::Arc;

use parking_lot::Mutex;
use prc_data::partition::{partition_values, PartitionStrategy};
use prc_data::record::{AirQualityIndex, Dataset};
use prc_runtime::{CutoffPolicy, Runtime};

use crate::base_station::BaseStation;
use crate::failure::{FailurePlan, LossMode};
use crate::message::{Message, NodeId, SampleMessage};
use crate::node::SensorNode;
use crate::trace::{TraceEvent, Tracer};

/// Aggregate communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CostSnapshot {
    /// Total messages transmitted (including retransmissions and hops).
    pub messages: u64,
    /// Messages that piggybacked on routine traffic (heartbeat rule).
    pub free_messages: u64,
    /// Total sample entries shipped.
    pub samples: u64,
    /// Total payload bytes transmitted.
    pub bytes: u64,
    /// Messages permanently lost (only under `LossMode::Drop`).
    pub lost_messages: u64,
}

impl CostSnapshot {
    /// Messages that incurred real cost (not piggybacked).
    pub fn chargeable_messages(&self) -> u64 {
        self.messages - self.free_messages
    }
}

/// A thread-safe communication cost meter.
///
/// Cloning produces a handle to the same underlying counters. In
/// addition to the aggregate [`CostSnapshot`], the meter tracks bytes
/// transmitted *per node*, which the energy model
/// ([`crate::energy`]) turns into per-node battery drain.
#[derive(Debug, Clone, Default)]
pub struct CostMeter {
    inner: Arc<Mutex<MeterState>>,
}

#[derive(Debug, Default)]
struct MeterState {
    totals: CostSnapshot,
    per_node_bytes: std::collections::BTreeMap<NodeId, u64>,
}

impl CostMeter {
    /// Creates a meter with zeroed counters.
    pub fn new() -> Self {
        CostMeter::default()
    }

    /// Records one delivered message that crossed `hops` links and needed
    /// `attempts` transmissions per link.
    ///
    /// Per-node accounting attributes the full (hop-multiplied) byte cost
    /// to the originating node, matching the convention that relaying
    /// energy is billed to the flow that caused it.
    pub fn record(&self, message: &Message, hops: u32, attempts: u32) {
        let mut inner = self.inner.lock();
        let transmissions = u64::from(hops) * u64::from(attempts);
        inner.totals.messages += transmissions;
        if message.is_free() {
            inner.totals.free_messages += transmissions;
        }
        let bytes = message.wire_size() as u64 * transmissions;
        inner.totals.bytes += bytes;
        *inner.per_node_bytes.entry(message.node_id()).or_insert(0) += bytes;
        if let Message::Sample(m) = message {
            inner.totals.samples += m.entries.len() as u64;
        }
    }

    /// Records a permanently lost message (its transmission still cost bytes).
    pub fn record_lost(&self, message: &Message) {
        let mut inner = self.inner.lock();
        inner.totals.messages += 1;
        inner.totals.lost_messages += 1;
        let bytes = message.wire_size() as u64;
        inner.totals.bytes += bytes;
        *inner.per_node_bytes.entry(message.node_id()).or_insert(0) += bytes;
    }

    /// Current counter values.
    pub fn snapshot(&self) -> CostSnapshot {
        self.inner.lock().totals
    }

    /// Bytes attributed to each node so far.
    pub fn per_node_bytes(&self) -> std::collections::BTreeMap<NodeId, u64> {
        self.inner.lock().per_node_bytes.clone()
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        *self.inner.lock() = MeterState::default();
    }
}

/// What one collection round changed, as seen through the delta
/// contract (§12 of DESIGN.md).
///
/// A round's delta is *derived from the station's revision journal*
/// ([`BaseStation::changed_since`]), not from driver-internal
/// bookkeeping: every driver mutates station state exclusively through
/// [`BaseStation::ingest`], so for byte-identical rounds every driver
/// reports byte-identical deltas. The conformance kit
/// ([`crate::conformance`]) pins this across flat/threaded/tree.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RoundDelta {
    /// Sample entries delivered to the station this round.
    pub delivered: usize,
    /// Nodes whose station record changed this round, in node-id order.
    /// Empty for a round in which every message was lost or redundant.
    pub changed: Vec<NodeId>,
    /// The station revision after the round; consumers store this and
    /// pass it back to [`BaseStation::changed_since`] to resynchronise
    /// incrementally.
    pub revision: u64,
}

/// A driver-agnostic view of a sampling network.
///
/// All three drivers — [`FlatNetwork`] (single-threaded, one synchronous
/// round per collection), [`ThreadedNetwork`] (one OS thread per node,
/// channel rounds), and [`crate::tree::TreeNetwork`] (balanced d-ary
/// aggregation tree, hop-multiplied costs) — expose the same protocol
/// surface: a population distributed over `k` nodes, a base station
/// accumulating Bernoulli samples, and a [`CostMeter`] charging every
/// message. Generic consumers — most importantly the broker in
/// `prc-core` — are written against this trait so the same pipeline runs
/// unchanged over any driver.
///
/// Implementations must be *deterministic in the seed*: for identical
/// construction parameters, the station state after any sequence of
/// [`Network::collect_samples`] calls must not depend on scheduling —
/// and for one shared [`FailurePlan`] seed, every driver must see the
/// same per-node failures. The executable form of this contract lives in
/// [`crate::conformance`]; `tests/driver_conformance.rs` runs it against
/// every driver.
pub trait Network {
    /// Number of nodes (dead or alive).
    fn node_count(&self) -> usize;

    /// Total data elements across all nodes, `n = |D|`.
    fn total_data_size(&self) -> usize;

    /// The base station's view of collected samples.
    fn station(&self) -> &BaseStation;

    /// The cost meter charging this network's traffic.
    fn meter(&self) -> &CostMeter;

    /// Installs a failure plan (replacing any previous plan); subsequent
    /// rounds consult it for node dropout and message loss.
    fn set_failure_plan(&mut self, plan: FailurePlan);

    /// Attaches an event tracer; subsequent rounds emit
    /// [`crate::trace::TraceEvent`]s into it.
    fn set_tracer(&mut self, tracer: Tracer);

    /// Exact global range count `γ(l, u, D)` — ground truth for
    /// evaluation. Computed out of band (not metered, unaffected by
    /// failure plans): evaluation harnesses need the truth even when the
    /// simulated radios are lossy.
    fn exact_range_count(&self, l: f64, u: f64) -> usize;

    /// Runs one collection round: every live node raises its cumulative
    /// sampling probability to `target` and ships the new batch. Returns
    /// the number of sample entries that reached the base station.
    fn collect_samples(&mut self, target: f64) -> usize;

    /// The collection-stage hook: tops the station up to `target` when
    /// its effective probability lags, returning `Some(delivered)` for a
    /// round that actually ran and `None` when the existing sample
    /// already suffices. Consumers (the broker's Collect stage) treat a
    /// `Some` as the start of a new collection epoch.
    fn top_up(&mut self, target: f64) -> Option<usize> {
        if self.station().effective_probability() < target {
            Some(self.collect_samples(target.clamp(f64::MIN_POSITIVE, 1.0)))
        } else {
            None
        }
    }

    /// Runs one collection round and reports its [`RoundDelta`]: the
    /// exact set of nodes whose station record changed, instead of
    /// forcing the consumer to treat the whole station as dirty.
    ///
    /// Provided for every driver by bracketing
    /// [`Network::collect_samples`] with the station's revision journal;
    /// drivers must not override this with driver-local bookkeeping (the
    /// journal is what keeps flat/threaded/tree deltas byte-identical).
    fn collect_delta(&mut self, target: f64) -> RoundDelta {
        let before = self.station().revision();
        let delivered = self.collect_samples(target);
        let station = self.station();
        RoundDelta {
            delivered,
            changed: station.changed_since(before),
            revision: station.revision(),
        }
    }

    /// The delta-reporting form of [`Network::top_up`]: `Some(delta)`
    /// for a round that actually ran, `None` when the existing sample
    /// already meets `target`.
    fn top_up_delta(&mut self, target: f64) -> Option<RoundDelta> {
        if self.station().effective_probability() < target {
            Some(self.collect_delta(target.clamp(f64::MIN_POSITIVE, 1.0)))
        } else {
            None
        }
    }
}

/// `n = Σ n_i` over a driver's nodes, summed once at construction.
pub(crate) fn total_population(nodes: &[SensorNode]) -> usize {
    nodes.iter().map(SensorNode::population_size).sum()
}

/// Sends one node's batch over `hops` links under `failure`, the step
/// every driver shares: the batch is metered (and traced) as delivered
/// and ingested by the station, or metered as lost. A batch lost under
/// [`LossMode::Drop`] still registers the node's population and
/// probability claim with the station, without the lost entries.
/// Returns the entries delivered.
///
/// The batch is wrapped in its [`Message`] once and metered by
/// reference, then moved on to the station.
pub(crate) fn ship_batch(
    batch: SampleMessage,
    hops: u32,
    failure: &mut FailurePlan,
    meter: &CostMeter,
    tracer: Option<&Tracer>,
    station: &mut BaseStation,
) -> usize {
    let node = batch.node_id;
    let entries = batch.entries.len();
    let message = Message::Sample(batch);
    let attempts = failure.transmission_attempts(node);
    match attempts {
        Some(attempts) => meter.record(&message, hops, attempts),
        None => meter.record_lost(&message),
    }
    if let Some(tracer) = tracer {
        tracer.record(match attempts {
            Some(attempts) => TraceEvent::BatchDelivered {
                node,
                entries,
                attempts,
            },
            None => TraceEvent::BatchLost { node, entries },
        });
    }
    // Move the batch back out of the message it was metered as.
    let Message::Sample(mut batch) = message else {
        return 0;
    };
    match attempts {
        Some(_) => {
            station.ingest(batch);
            entries
        }
        None => {
            if failure.loss_mode() == LossMode::Drop {
                batch.entries = Vec::new();
                station.ingest(batch);
            }
            0
        }
    }
}

/// The paper's flat network: `k` sensor nodes reporting directly to one
/// base station.
#[derive(Debug)]
pub struct FlatNetwork {
    nodes: Vec<SensorNode>,
    /// `Σ n_i` over `nodes`, kept in step by [`FlatNetwork::add_node`].
    total_data_size: usize,
    station: BaseStation,
    meter: CostMeter,
    failure: FailurePlan,
    tracer: Option<Tracer>,
}

impl FlatNetwork {
    /// Builds a network with one node per partition.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty.
    pub fn from_partitions(partitions: Vec<Vec<f64>>, seed: u64) -> Self {
        assert!(!partitions.is_empty(), "network needs at least one node");
        let nodes: Vec<SensorNode> = partitions
            .into_iter()
            .enumerate()
            .map(|(i, data)| SensorNode::new(NodeId(i as u32), data, seed))
            .collect();
        FlatNetwork {
            total_data_size: total_population(&nodes),
            nodes,
            station: BaseStation::new(),
            meter: CostMeter::new(),
            failure: FailurePlan::none(),
            tracer: None,
        }
    }

    /// Builds a network over one air-quality index of a dataset,
    /// partitioned across `k` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn from_dataset(
        dataset: &Dataset,
        index: AirQualityIndex,
        k: usize,
        strategy: PartitionStrategy,
        seed: u64,
    ) -> Self {
        let values = dataset.values(index);
        FlatNetwork::from_partitions(partition_values(&values, k, strategy), seed)
    }

    /// Installs a failure plan (replacing any previous plan).
    pub fn set_failure_plan(&mut self, plan: FailurePlan) {
        self.failure = plan;
    }

    /// Attaches an event tracer; subsequent rounds emit [`TraceEvent`]s.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Dynamic membership: adds a node with fresh local data and returns
    /// its id. The node starts unsampled; it catches up at the next
    /// collection round, after which the global estimator automatically
    /// covers the grown population (its `k` and `n` come from the base
    /// station's live state).
    pub fn add_node(&mut self, data: Vec<f64>, seed: u64) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let node = SensorNode::new(id, data, seed);
        self.total_data_size += node.population_size();
        self.nodes.push(node);
        id
    }

    /// Number of nodes (dead or alive).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total data elements across all nodes, `n = |D|`.
    pub fn total_data_size(&self) -> usize {
        self.total_data_size
    }

    /// The base station's view of collected samples.
    pub fn station(&self) -> &BaseStation {
        &self.station
    }

    /// The cost meter.
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// Read access to the nodes (ground-truth computations in tests).
    pub fn nodes(&self) -> &[SensorNode] {
        &self.nodes
    }

    /// Exact global range count `γ(l, u, D)` — ground truth for evaluation.
    pub fn exact_range_count(&self, l: f64, u: f64) -> usize {
        self.nodes.iter().map(|n| n.exact_range_count(l, u)).sum()
    }

    /// Runs one collection round: every live node raises its cumulative
    /// sampling probability to `target` and ships the new batch.
    ///
    /// Dead nodes stay silent. Message loss follows the installed
    /// [`FailurePlan`]. Returns the number of sample entries that reached
    /// the base station this round.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1]`.
    pub fn collect_samples(&mut self, target: f64) -> usize {
        assert!(
            target > 0.0 && target <= 1.0,
            "sampling probability must be in (0, 1], got {target}"
        );
        let mut delivered = 0;
        for node in &mut self.nodes {
            if self.failure.node_is_dead(node.id()) {
                if let Some(tracer) = &self.tracer {
                    tracer.record(TraceEvent::NodeSilent { node: node.id() });
                }
                continue;
            }
            if node.probability() < target {
                let request = Message::TopUpRequest {
                    node_id: node.id(),
                    target_probability: target,
                };
                // Downlink request; retransmitted until heard even in Drop
                // mode (control traffic is acked in any real protocol).
                self.meter.record(&request, 1, 1);
                if let Some(tracer) = &self.tracer {
                    tracer.record(TraceEvent::TopUpRequested {
                        node: node.id(),
                        target,
                    });
                }
            } else {
                continue;
            }
            delivered += ship_batch(
                node.sample_to(target),
                1,
                &mut self.failure,
                &self.meter,
                self.tracer.as_ref(),
                &mut self.station,
            );
        }
        if let Some(tracer) = &self.tracer {
            let round = tracer.next_round();
            tracer.record(TraceEvent::RoundCompleted {
                round,
                target,
                delivered,
            });
        }
        delivered
    }
}

impl Network for FlatNetwork {
    fn node_count(&self) -> usize {
        FlatNetwork::node_count(self)
    }

    fn total_data_size(&self) -> usize {
        FlatNetwork::total_data_size(self)
    }

    fn station(&self) -> &BaseStation {
        FlatNetwork::station(self)
    }

    fn meter(&self) -> &CostMeter {
        FlatNetwork::meter(self)
    }

    fn collect_samples(&mut self, target: f64) -> usize {
        FlatNetwork::collect_samples(self, target)
    }

    fn set_failure_plan(&mut self, plan: FailurePlan) {
        FlatNetwork::set_failure_plan(self, plan);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        FlatNetwork::set_tracer(self, tracer);
    }

    fn exact_range_count(&self, l: f64, u: f64) -> usize {
        FlatNetwork::exact_range_count(self, l, u)
    }
}

/// A threaded driver: per-node sampling fanned out over the shared
/// [`prc_runtime::Runtime`] pool, and the same deterministic per-node
/// sampling as [`FlatNetwork`].
///
/// For the same construction parameters, the base-station state after
/// [`ThreadedNetwork::collect_samples`] is identical to the flat driver's
/// (each node owns an independent RNG seeded from the shared seed and the
/// node id, so pool scheduling cannot change what is sampled). The same
/// holds under a [`FailurePlan`]: nodes sample concurrently, but failure
/// decisions are keyed by `NodeId` and applied by the coordinator in
/// node-id order, so dropout, loss, metering, and tracing replay the
/// flat protocol exactly.
#[derive(Debug)]
pub struct ThreadedNetwork {
    nodes: Vec<SensorNode>,
    /// `Σ n_i` over `nodes`, fixed at construction.
    total_data_size: usize,
    station: BaseStation,
    meter: CostMeter,
    failure: FailurePlan,
    tracer: Option<Tracer>,
}

/// Network rounds always amortize their fan-out (per-node sampling and
/// counting dwarf dispatch); a single-worker pool still degrades to the
/// caller-side sequential path with identical bytes.
const NET_CUTOFF: CutoffPolicy = CutoffPolicy::always_parallel();

impl ThreadedNetwork {
    /// Builds a network with one node per partition.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty.
    pub fn from_partitions(partitions: Vec<Vec<f64>>, seed: u64) -> Self {
        assert!(!partitions.is_empty(), "network needs at least one node");
        let nodes: Vec<SensorNode> = partitions
            .into_iter()
            .enumerate()
            .map(|(i, data)| SensorNode::new(NodeId(i as u32), data, seed))
            .collect();
        ThreadedNetwork {
            total_data_size: total_population(&nodes),
            nodes,
            station: BaseStation::new(),
            meter: CostMeter::new(),
            failure: FailurePlan::none(),
            tracer: None,
        }
    }

    /// Installs a failure plan (replacing any previous plan).
    pub fn set_failure_plan(&mut self, plan: FailurePlan) {
        self.failure = plan;
    }

    /// Attaches an event tracer; subsequent rounds emit [`TraceEvent`]s.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total data elements across all nodes.
    pub fn total_data_size(&self) -> usize {
        self.total_data_size
    }

    /// The base station's view of collected samples.
    pub fn station(&self) -> &BaseStation {
        &self.station
    }

    /// The cost meter.
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// Exact global range count `γ(l, u, D)` — ground truth for
    /// evaluation, summed over pool workers and not metered.
    ///
    /// # Panics
    ///
    /// Only to propagate a pool worker's panic, re-raised through the
    /// runtime's single panic path ([`Runtime::map_chunked`]).
    pub fn exact_range_count(&self, l: f64, u: f64) -> usize {
        Runtime::global()
            .map_chunked(&self.nodes, self.nodes.len(), NET_CUTOFF, |chunk| {
                chunk
                    .items
                    .iter()
                    .map(|node| node.exact_range_count(l, u))
                    .sum::<usize>()
            })
            .into_iter()
            .sum()
    }

    /// Broadcasts a top-up to `target` and gathers every live node's
    /// batch, replaying the flat driver's failure, metering, and tracing
    /// protocol in node-id order.
    ///
    /// Returns the number of sample entries that reached the base
    /// station this round.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1]`. Otherwise only to propagate
    /// a pool worker's panic, re-raised through the runtime's single
    /// panic path ([`Runtime::map_chunked_mut`]).
    pub fn collect_samples(&mut self, target: f64) -> usize {
        assert!(
            target > 0.0 && target <= 1.0,
            "sampling probability must be in (0, 1], got {target}"
        );
        // Fan out: dead nodes are never contacted; live nodes top up
        // concurrently over the shared pool. Dropout draws memoize
        // through `&mut FailurePlan`, so they are decided here in id
        // order (matching every other driver) before the fan-out; each
        // node owns its RNG, so what gets sampled is independent of
        // chunking and scheduling.
        let node_count = self.nodes.len();
        let dead: Vec<bool> = (0..node_count)
            .map(|i| self.failure.node_is_dead(NodeId(i as u32)))
            .collect();
        let dead = &dead;
        let batches =
            Runtime::global().map_chunked_mut(&mut self.nodes, node_count, NET_CUTOFF, |chunk| {
                chunk
                    .items
                    .iter_mut()
                    .filter(|node| !dead[node.id().0 as usize])
                    .map(|node| {
                        let lagged = node.probability() < target;
                        (lagged, node.sample_to(target))
                    })
                    .collect::<Vec<_>>()
            });
        // Gather: park every live node's batch by id.
        let mut replies: std::collections::BTreeMap<NodeId, (bool, SampleMessage)> = batches
            .into_iter()
            .flatten()
            .map(|(lagged, batch)| (batch.node_id, (lagged, batch)))
            .collect();
        // Settle in node-id order: identical event, metering, and loss
        // sequence to FlatNetwork::collect_samples.
        let mut delivered = 0;
        for i in 0..node_count {
            let id = NodeId(i as u32);
            if self.failure.node_is_dead(id) {
                if let Some(tracer) = &self.tracer {
                    tracer.record(TraceEvent::NodeSilent { node: id });
                }
                continue;
            }
            let Some((lagged, batch)) = replies.remove(&id) else {
                continue;
            };
            if !lagged {
                continue;
            }
            let request = Message::TopUpRequest {
                node_id: id,
                target_probability: target,
            };
            self.meter.record(&request, 1, 1);
            if let Some(tracer) = &self.tracer {
                tracer.record(TraceEvent::TopUpRequested { node: id, target });
            }
            delivered += ship_batch(
                batch,
                1,
                &mut self.failure,
                &self.meter,
                self.tracer.as_ref(),
                &mut self.station,
            );
        }
        if let Some(tracer) = &self.tracer {
            let round = tracer.next_round();
            tracer.record(TraceEvent::RoundCompleted {
                round,
                target,
                delivered,
            });
        }
        delivered
    }
}

impl Network for ThreadedNetwork {
    fn node_count(&self) -> usize {
        ThreadedNetwork::node_count(self)
    }

    fn total_data_size(&self) -> usize {
        ThreadedNetwork::total_data_size(self)
    }

    fn station(&self) -> &BaseStation {
        ThreadedNetwork::station(self)
    }

    fn meter(&self) -> &CostMeter {
        ThreadedNetwork::meter(self)
    }

    fn collect_samples(&mut self, target: f64) -> usize {
        ThreadedNetwork::collect_samples(self, target)
    }

    fn set_failure_plan(&mut self, plan: FailurePlan) {
        ThreadedNetwork::set_failure_plan(self, plan);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        ThreadedNetwork::set_tracer(self, tracer);
    }

    fn exact_range_count(&self, l: f64, u: f64) -> usize {
        ThreadedNetwork::exact_range_count(self, l, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::LossMode;

    fn partitions(k: usize, per_node: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|i| (0..per_node).map(|j| (i * per_node + j) as f64).collect())
            .collect()
    }

    #[test]
    fn flat_network_collects_from_all_nodes() {
        let mut net = FlatNetwork::from_partitions(partitions(4, 100), 7);
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.total_data_size(), 400);
        let delivered = net.collect_samples(0.5);
        assert!(delivered > 0);
        assert_eq!(net.station().node_count(), 4);
        assert_eq!(net.station().total_population(), 400);
        assert_eq!(net.station().effective_probability(), 0.5);
        assert_eq!(net.station().total_samples(), delivered);
    }

    #[test]
    fn top_up_rounds_accumulate() {
        let mut net = FlatNetwork::from_partitions(partitions(2, 1_000), 3);
        let first = net.collect_samples(0.1);
        let second = net.collect_samples(0.4);
        assert_eq!(net.station().total_samples(), first + second);
        assert_eq!(net.station().effective_probability(), 0.4);
        // Re-collecting at a lower probability moves nothing.
        let third = net.collect_samples(0.2);
        assert_eq!(third, 0);
    }

    #[test]
    fn meter_counts_messages_and_bytes() {
        let mut net = FlatNetwork::from_partitions(partitions(3, 200), 5);
        net.collect_samples(0.3);
        let cost = net.meter().snapshot();
        // 3 top-up requests + 3 sample messages minimum.
        assert!(cost.messages >= 6);
        assert!(cost.bytes > 0);
        assert_eq!(cost.samples, net.station().total_samples() as u64);
        net.meter().reset();
        assert_eq!(net.meter().snapshot(), CostSnapshot::default());
    }

    #[test]
    fn heartbeat_rule_marks_small_batches_free() {
        // Tiny sampling probability => tiny batches => free messages.
        let mut net = FlatNetwork::from_partitions(partitions(2, 50), 5);
        net.collect_samples(0.05);
        let cost = net.meter().snapshot();
        assert!(cost.free_messages > 0);
    }

    #[test]
    fn exact_count_sums_over_nodes() {
        let net = FlatNetwork::from_partitions(vec![vec![1.0, 2.0], vec![2.0, 3.0]], 0);
        assert_eq!(net.exact_range_count(2.0, 3.0), 3);
        assert_eq!(net.exact_range_count(0.0, 0.5), 0);
    }

    #[test]
    fn dead_nodes_stay_silent() {
        let mut net = FlatNetwork::from_partitions(partitions(4, 100), 9);
        let mut plan = FailurePlan::none();
        plan.kill_node(NodeId(0));
        plan.kill_node(NodeId(2));
        net.set_failure_plan(plan);
        net.collect_samples(0.5);
        assert_eq!(net.station().node_count(), 2);
        assert_eq!(net.station().total_population(), 200);
    }

    #[test]
    fn drop_mode_loses_batches_but_records_population() {
        let mut net = FlatNetwork::from_partitions(partitions(50, 100), 1);
        net.set_failure_plan(FailurePlan::new(0.0, 0.5, LossMode::Drop, 2));
        net.collect_samples(0.5);
        let cost = net.meter().snapshot();
        assert!(cost.lost_messages > 0, "expected losses at 50%");
        // Every node still registered (empty batches count the population).
        assert_eq!(net.station().node_count(), 50);
        // But fewer samples arrived than were sent.
        assert!((net.station().total_samples() as u64) < cost.samples + 2_000);
    }

    #[test]
    fn retransmit_mode_costs_more_but_loses_nothing() {
        let mk = |loss: f64, seed| {
            let mut net = FlatNetwork::from_partitions(partitions(5, 500), seed);
            if loss > 0.0 {
                net.set_failure_plan(FailurePlan::new(0.0, loss, LossMode::Retransmit, 4));
            }
            net.collect_samples(0.4);
            (
                net.meter().snapshot().messages,
                net.station().total_samples(),
            )
        };
        let (clean_msgs, clean_samples) = mk(0.0, 21);
        let (lossy_msgs, lossy_samples) = mk(0.4, 21);
        assert_eq!(
            clean_samples, lossy_samples,
            "retransmit must not lose data"
        );
        assert!(
            lossy_msgs > clean_msgs,
            "retransmissions must cost messages"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_network_panics() {
        let _ = FlatNetwork::from_partitions(vec![], 0);
    }

    #[test]
    fn dynamic_membership_catches_up_on_the_next_round() {
        let mut net = FlatNetwork::from_partitions(partitions(3, 200), 5);
        net.collect_samples(0.4);
        assert_eq!(net.station().node_count(), 3);
        assert_eq!(net.station().effective_probability(), 0.4);

        // A new device joins with fresh data.
        let id = net.add_node((600..800).map(f64::from).collect(), 5);
        assert_eq!(id, NodeId(3));
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.total_data_size(), 800);
        // The station lags until the next round…
        assert_eq!(net.station().node_count(), 3);
        // …then the newcomer catches up to the same cumulative p.
        net.collect_samples(0.4);
        assert_eq!(net.station().node_count(), 4);
        assert_eq!(net.station().effective_probability(), 0.4);
        assert_eq!(net.station().total_population(), 800);
    }

    #[test]
    fn tracer_observes_a_round() {
        use crate::trace::{TraceEvent, Tracer};
        let mut net = FlatNetwork::from_partitions(partitions(3, 100), 9);
        let mut plan = FailurePlan::none();
        plan.kill_node(NodeId(1));
        net.set_failure_plan(plan);
        let tracer = Tracer::new(64);
        net.set_tracer(tracer.clone());
        let delivered = net.collect_samples(0.3);

        let counts = tracer.counts_by_kind();
        assert_eq!(counts["node_silent"], 1);
        assert_eq!(counts["top_up_requested"], 2);
        assert_eq!(counts["batch_delivered"], 2);
        assert_eq!(counts["round_completed"], 1);
        // The round summary carries the delivered total.
        let last = tracer.events().pop().unwrap();
        match last {
            TraceEvent::RoundCompleted {
                round,
                target,
                delivered: d,
            } => {
                assert_eq!(round, 0);
                assert_eq!(target, 0.3);
                assert_eq!(d, delivered);
            }
            other => panic!("unexpected final event {other:?}"),
        }
        // A second, lower-target round only emits silence + summary.
        tracer.clear();
        net.collect_samples(0.1);
        let counts = tracer.counts_by_kind();
        assert_eq!(counts.get("batch_delivered"), None);
        assert_eq!(counts["round_completed"], 1);
    }

    #[test]
    fn threaded_matches_flat_exactly() {
        let parts = partitions(8, 400);
        let mut flat = FlatNetwork::from_partitions(parts.clone(), 77);
        flat.collect_samples(0.25);
        flat.collect_samples(0.6);

        let mut threaded = ThreadedNetwork::from_partitions(parts, 77);
        threaded.collect_samples(0.25);
        threaded.collect_samples(0.6);

        assert_eq!(flat.station(), threaded.station());
        assert_eq!(threaded.node_count(), 8);
        assert_eq!(threaded.total_data_size(), 3_200);
    }

    #[test]
    fn threaded_meter_counts() {
        let mut net = ThreadedNetwork::from_partitions(partitions(3, 100), 1);
        let delivered = net.collect_samples(0.5);
        let cost = net.meter().snapshot();
        assert_eq!(cost.samples, delivered as u64);
        assert_eq!(cost.messages, 6); // 3 requests + 3 batches
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn threaded_rejects_bad_probability() {
        let mut net = ThreadedNetwork::from_partitions(partitions(1, 10), 1);
        net.collect_samples(0.0);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn flat_rejects_bad_probability() {
        let mut net = FlatNetwork::from_partitions(partitions(1, 10), 1);
        net.collect_samples(1.5);
    }

    #[test]
    fn threaded_matches_flat_under_the_same_failure_plan() {
        // Satellite regression for the old parity gap: the threaded
        // driver used to silently ignore FailurePlan and Tracer.
        let parts = partitions(10, 300);
        let mk_plan = || {
            let mut plan = FailurePlan::new(0.2, 0.3, LossMode::Drop, 31);
            plan.kill_node(NodeId(4));
            plan
        };

        let mut flat = FlatNetwork::from_partitions(parts.clone(), 55);
        flat.set_failure_plan(mk_plan());
        let flat_tracer = crate::trace::Tracer::new(256);
        flat.set_tracer(flat_tracer.clone());
        flat.collect_samples(0.3);
        flat.collect_samples(0.7);

        let mut threaded = ThreadedNetwork::from_partitions(parts, 55);
        threaded.set_failure_plan(mk_plan());
        let threaded_tracer = crate::trace::Tracer::new(256);
        threaded.set_tracer(threaded_tracer.clone());
        threaded.collect_samples(0.3);
        threaded.collect_samples(0.7);

        assert_eq!(
            flat.station(),
            threaded.station(),
            "station state must be identical under one failure plan"
        );
        assert_eq!(flat.meter().snapshot(), threaded.meter().snapshot());
        assert_eq!(
            flat.meter().per_node_bytes(),
            threaded.meter().per_node_bytes()
        );
        assert_eq!(
            flat_tracer.events(),
            threaded_tracer.events(),
            "the two drivers must emit the same event sequence"
        );
    }

    #[test]
    fn threaded_exact_count_matches_flat() {
        let parts = partitions(6, 150);
        let flat = FlatNetwork::from_partitions(parts.clone(), 3);
        let threaded = ThreadedNetwork::from_partitions(parts, 3);
        assert_eq!(
            flat.exact_range_count(100.0, 550.0),
            threaded.exact_range_count(100.0, 550.0)
        );
        assert_eq!(threaded.exact_range_count(0.0, 1e9), 900);
        // Ground truth is not metered.
        assert_eq!(threaded.meter().snapshot(), CostSnapshot::default());
    }

    #[test]
    fn threaded_repeat_rounds_meter_like_flat() {
        // A round below the reached probability must move (and charge)
        // nothing — the old driver charged every node every round.
        let parts = partitions(4, 100);
        let mut flat = FlatNetwork::from_partitions(parts.clone(), 8);
        let mut threaded = ThreadedNetwork::from_partitions(parts, 8);
        flat.collect_samples(0.6);
        threaded.collect_samples(0.6);
        assert_eq!(flat.collect_samples(0.2), 0);
        assert_eq!(threaded.collect_samples(0.2), 0);
        assert_eq!(flat.meter().snapshot(), threaded.meter().snapshot());
    }
}
