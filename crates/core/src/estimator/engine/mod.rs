//! The batched query engine.
//!
//! Every estimator path in this crate answers a range query by locating
//! the same two boundaries in a value-sorted sequence: the first
//! position whose value is `>= lower` and the first `> upper`. The
//! engine owns that resolution step in two forms, both returning
//! *exactly* the indices `slice::partition_point` would:
//!
//! * [`boundary_ranks`] / [`entry_boundary_ranks`] — two
//!   `partition_point` searches per query: every single-query path and
//!   every scan-path estimator resolves through it;
//! * [`resolve_batch`] — the sorted-batch sweep: all `2q` boundaries of
//!   a query batch are sorted once (an index-stable, total order) and
//!   resolved in one forward pass, galloping from the previous hit
//!   instead of restarting at the root.
//!
//! Which form answers a batch is a cost decision, [`batch_resolver`]:
//! the sweep's sort only pays for itself on large, dense batches over
//! merged arrays too large for cache (at least [`SWEEP_MIN_QUERIES`]
//! queries over at least [`SWEEP_MIN_ENTRIES`] entries, under 128
//! entries per probe); everything else goes per query through
//! `partition_point`.
//!
//! Because both forms resolve to identical indices, the downstream
//! `(ΣA, ΣB)` integer aggregation is untouched and released answers
//! stay bit-identical across the scan, indexed, and batched paths.
//!
//! The module also houses the optimizer [`PlanCache`](plan_cache): the
//! grid sweep of problem (3) is a pure function of the accuracy target,
//! the rate tier, and the station state, so its result is memoized
//! under the same revision stamps that pin the query index to an epoch.

mod boundary;
mod plan_cache;
mod sweep;

pub use boundary::{boundary_ranks, boundary_ranks_by, entry_boundary_ranks};
pub(crate) use plan_cache::PlanCache;
pub use sweep::{
    batch_resolver, resolve_batch, resolve_batch_with, BatchResolver, ResolvedBoundaries,
    SWEEP_MIN_ENTRIES, SWEEP_MIN_QUERIES,
};
