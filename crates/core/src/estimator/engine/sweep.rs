//! The sorted-batch boundary resolver: all `2q` boundaries of a query
//! batch, sorted once and resolved in a single forward sweep.
//!
//! Answering a batch one query at a time restarts a root-to-leaf binary
//! search per boundary — `2q log S` cache-hostile probes over the same
//! array. The sweep instead sorts the batch's boundaries by their
//! resolution order and walks the value array once, forward from the
//! previous boundary's position: a cache-line stride merge-scan when
//! probes are dense (the whole sweep then streams the array once), a
//! *gallop* (exponential search) when they are sparse. Probes are
//! monotone non-decreasing, so total work is
//! `O(q log q + min(S/8 + q, q log(S/q)))` with near-sequential access.
//!
//! Determinism: the probe order is an **index-stable total order** —
//! `(value, kind, submission slot)` with `f64::total_cmp` over values,
//! except that signed zeros are collapsed to `+0.0` — so equal
//! boundaries resolve in submission order and the sort (and therefore
//! the sweep) is a pure function of the batch, independent of sort
//! implementation details, chunking, or thread count. Each probe's
//! result is provably the global `partition_point` index (the gallop
//! window always brackets the partition boundary), so chunking a batch
//! across workers cannot change any resolved position — only which
//! worker resolves it.
//!
//! Each probe is packed into one `u128` key — the value's bits mapped
//! into the order-preserving integer form of IEEE-754 total ordering
//! (`f64::total_cmp` with `-0.0` normalized to `+0.0`, since the
//! resolution predicates cannot tell the zeros apart — see
//! [`orderable_bits`]), then the kind bit, then the submission slot —
//! so the index-stable order above is plain unsigned comparison and the
//! sort runs branchless over integers instead of through a three-way
//! float comparator (measured ~4× cheaper on 8k probes, and the sort is
//! the resolver's dominant cost).

use crate::query::RangeQuery;

/// Sign bit of an `f64`'s bit pattern.
const SIGN: u64 = 1 << 63;

/// Maps `f64` bits to an unsigned integer whose `<` order is exactly
/// `f64::total_cmp` *over the values a probe can distinguish*: negative
/// values flip entirely (descending bit patterns become ascending),
/// non-negative values set the sign bit to sort above every negative.
///
/// Signed zero is normalized to `+0.0` first. `total_cmp` orders
/// `-0.0 < +0.0`, but the resolution predicates compare numerically,
/// where the two are equal — an upper probe at `-0.0` resolves *past* a
/// lower probe at `+0.0`, and sorting it earlier would strand the
/// forward-only cursor beyond the later probe's position. Collapsing
/// the zeros makes sort order agree with resolution order; ties then
/// break deterministically on the kind and slot bits.
fn orderable_bits(value: f64) -> u64 {
    let value = if value == 0.0 { 0.0 } else { value };
    let bits = value.to_bits();
    if bits & SIGN != 0 {
        !bits
    } else {
        bits | SIGN
    }
}

/// Inverse of [`orderable_bits`] — bit-exact except for a `-0.0` input,
/// which round-trips to the normalized `+0.0`. Either way the predicate
/// a probe evaluates is the same numeric `f64` comparison the baseline
/// would run (`-0.0 == +0.0` under `<` / `<=`).
fn value_of(mapped: u64) -> f64 {
    if mapped & SIGN != 0 {
        f64::from_bits(mapped & !SIGN)
    } else {
        f64::from_bits(!mapped)
    }
}

/// Packs one boundary probe: mapped value bits above, then the kind bit
/// (0 lower / 1 upper — lowers resolve first on ties), then the
/// submission slot. Unsigned order over the packed key *is* the
/// index-stable `(value, kind, slot)` order.
fn probe_key(value: f64, upper: bool, slot: usize) -> u128 {
    (u128::from(orderable_bits(value)) << 64) | (u128::from(upper) << 63) | slot as u128
}

/// Unpacks a probe key to `(value, is_lower, slot)`.
fn probe_parts(key: u128) -> (f64, bool, usize) {
    let value = value_of((key >> 64) as u64);
    let is_lower = key & (1 << 63) == 0;
    let slot = (key as u64 & (SIGN - 1)) as usize;
    (value, is_lower, slot)
}

/// The boundary resolver a batch is answered through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchResolver {
    /// Two `partition_point` searches per query ([`super::boundary_ranks`]).
    PartitionPoint,
    /// One sorted forward sweep over the whole batch ([`resolve_batch`]).
    Sweep,
}

/// Fewest queries for which the sweep can beat per-query
/// `partition_point`; see [`batch_resolver`].
pub const SWEEP_MIN_QUERIES: usize = 1 << 12;

/// Fewest merged entries for which the sweep can beat per-query
/// `partition_point`; see [`batch_resolver`].
pub const SWEEP_MIN_ENTRIES: usize = 1 << 17;

/// Picks the resolver for `queries` range queries over `entries` sorted
/// entries. The sweep is picked only when all three hold: at least
/// [`SWEEP_MIN_QUERIES`] queries, at least [`SWEEP_MIN_ENTRIES`]
/// entries, and probes dense enough for the sweep's merge-scan mode
/// (fewer than 128 entries per probe, the sweep's own mode cutoff).
///
/// The sweep pays `O(q log q)` to sort its `2q` probe keys up front. It
/// only wins where per-query searches are dear, because the value and
/// aggregate arrays (six 8-byte words per entry) no longer fit in
/// cache, and only in merge-scan mode, which streams the arrays once;
/// its sparse gallop mode never wins clearly. `BENCH_query_engine.json`
/// gives `speedup_batch` (sweep over `partition_point`, min of 3) per
/// cell; over eight full runs on a 2-core x86-64 VM:
/// - up to 65,512 entries no cell wins consistently (medians 0.3–0.9×);
/// - at 130,964 entries only 4,096 queries win, and not in every run
///   (0.84–1.57×);
/// - at 262,580 entries 4,096 queries win in every run (1.41–1.79×);
///   2,048 queries range 0.75–1.64×, and 1,024 or fewer mostly lose;
/// - at 525,478 entries 4,096 queries win in every run (1.44–2.14×);
///   2,048 queries do not (0.62–1.11×): probes are 128 entries apart
///   there, so the sweep gallops.
///
/// The rule takes only the cells that win in every run: `2^12` queries
/// over `2^17` entries (between 130,964 and 262,580) or more.
///
/// Either resolver returns the exact `partition_point` indices, so the
/// choice never changes a released bit.
#[must_use]
pub const fn batch_resolver(queries: usize, entries: usize) -> BatchResolver {
    let probes = queries.saturating_mul(2);
    let dense = probes > 0 && entries / probes < MERGE_GAP_MAX;
    if queries >= SWEEP_MIN_QUERIES && entries >= SWEEP_MIN_ENTRIES && dense {
        BatchResolver::Sweep
    } else {
        BatchResolver::PartitionPoint
    }
}

/// Boundary positions for a batch of queries, scattered back into
/// submission order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolvedBoundaries {
    /// `pos_l[i] = values.partition_point(|&v| v < queries[i].lower())`.
    pub pos_l: Vec<usize>,
    /// `pos_u[i] = values.partition_point(|&v| v <= queries[i].upper())`.
    pub pos_u: Vec<usize>,
    /// Forward-advance steps the sweep took: gallop doublings before
    /// each window's binary search in sparse mode, cache-line strides
    /// in dense merge-scan mode — the engine's work meter (diagnostic:
    /// depends on how a driver chunks the batch, never on the resolved
    /// positions).
    pub gallop_steps: u64,
}

/// Resolves every query's two boundaries over an ascending-sorted value
/// slice, returning exactly the indices the two-`partition_point`
/// baseline ([`super::boundary_ranks`]) would.
pub fn resolve_batch(values: &[f64], queries: &[RangeQuery]) -> ResolvedBoundaries {
    let mut pos_l = vec![0usize; queries.len()];
    let mut pos_u = vec![0usize; queries.len()];
    let gallop_steps = resolve_batch_with(values, queries, |slot, is_lower, pos| {
        if is_lower {
            pos_l[slot] = pos;
        } else {
            pos_u[slot] = pos;
        }
    });
    ResolvedBoundaries {
        pos_l,
        pos_u,
        gallop_steps,
    }
}

/// The sweep core: resolves the batch's boundaries in sorted order,
/// reporting each through `visit(slot, is_lower, position)` *as it
/// resolves* — i.e. in ascending position order — and returns the
/// gallop-step meter.
///
/// Callers that look resolved positions up in side arrays (the merged
/// index's five aggregate arrays) should do so inside `visit`: the
/// positions stream monotonically, so those lookups walk the arrays
/// forward instead of jumping per submission order.
pub fn resolve_batch_with(
    values: &[f64],
    queries: &[RangeQuery],
    mut visit: impl FnMut(usize, bool, usize),
) -> u64 {
    let mut probes: Vec<u128> = Vec::with_capacity(queries.len() * 2);
    for (slot, query) in queries.iter().enumerate() {
        probes.push(probe_key(query.lower(), false, slot));
        probes.push(probe_key(query.upper(), true, slot));
    }
    // Index-stable total order: ties on (value, kind) keep submission
    // order, so the permutation is unique and `sort_unstable` is safe.
    probes.sort_unstable();

    // Dense batches (small gaps between consecutive resolved positions)
    // are resolved by a cache-line stride merge-scan: the whole sweep
    // then walks the array once, forward, one probe per line — which
    // the hardware prefetcher streams — instead of paying a scattered
    // gallop-plus-binary-search per boundary. Sparse batches gallop.
    // Both modes return the exact partition point, so the choice (which
    // can differ per chunk of a split batch) never changes a position.
    let dense = values.len() / probes.len().max(1) < MERGE_GAP_MAX;

    let mut gallop_steps = 0u64;
    let mut cursor = 0usize;
    for key in probes {
        let (value, is_lower, slot) = probe_parts(key);
        cursor = if dense {
            advance_to(values, cursor, value, is_lower, &mut gallop_steps)
        } else {
            gallop_from(values, cursor, value, is_lower, &mut gallop_steps)
        };
        visit(slot, is_lower, cursor);
    }
    gallop_steps
}

/// Expected elements per probe below which the stride merge-scan beats
/// galloping: at (or under) one-to-two cache lines per probe the scan's
/// sequential traffic is cheaper than scattered gallop probes.
const MERGE_GAP_MAX: usize = 128;

/// Dense-mode forward advance to `values.partition_point(pred)` given
/// the boundary lies at or after `start`: strides one cache line (8
/// `f64`s) while the line's last element still satisfies the predicate
/// — sortedness makes that one check cover the octet — then finishes
/// element-wise inside the final line.
fn advance_to(values: &[f64], start: usize, x: f64, strict: bool, steps: &mut u64) -> usize {
    let pred = |v: f64| if strict { v < x } else { v <= x };
    let n = values.len();
    let mut cursor = start;
    while cursor + 8 <= n && pred(values[cursor + 7]) {
        cursor += 8;
        *steps += 1;
    }
    while cursor < n && pred(values[cursor]) {
        cursor += 1;
    }
    cursor
}

/// Finds `values.partition_point(pred)` given that the partition
/// boundary is known to lie at or after `start`: doubles a probe window
/// forward until it brackets the boundary, then binary-searches inside
/// it. The window invariant (predicate true before it, false after)
/// makes the result exactly the global partition point.
fn gallop_from(values: &[f64], start: usize, x: f64, strict: bool, steps: &mut u64) -> usize {
    let pred = |v: f64| if strict { v < x } else { v <= x };
    let n = values.len();
    if start >= n || !pred(values[start]) {
        return start;
    }
    // `start` satisfies the predicate, so the boundary is in
    // `(start, n]`. `known` is the largest offset proven true.
    let mut known = 0usize;
    let mut bound = 1usize;
    while start + bound < n && pred(values[start + bound]) {
        known = bound;
        bound = bound.saturating_mul(2);
        *steps += 1;
    }
    let lo = start + known + 1;
    let hi = (start + bound).min(n);
    lo + values[lo..hi].partition_point(|&v| pred(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::engine::boundary_ranks;

    fn q(lower: f64, upper: f64) -> RangeQuery {
        RangeQuery::new(lower, upper).expect("valid range")
    }

    fn assert_matches_baseline(values: &[f64], queries: &[RangeQuery]) {
        let resolved = resolve_batch(values, queries);
        for (i, &query) in queries.iter().enumerate() {
            let (pos_l, pos_u) = boundary_ranks(values, query);
            assert_eq!(
                (resolved.pos_l[i], resolved.pos_u[i]),
                (pos_l, pos_u),
                "query {i} [{}, {}] over {values:?}",
                query.lower(),
                query.upper()
            );
        }
    }

    #[test]
    fn unordered_batches_scatter_back_to_submission_order() {
        let values = [0.0, 1.0, 1.0, 2.0, 5.0, 5.0, 9.0];
        let queries = [
            q(5.0, 9.0),
            q(0.0, 1.0),
            q(1.0, 5.0),
            q(-3.0, -1.0),
            q(10.0, 20.0),
            q(1.0, 1.0),
        ];
        assert_matches_baseline(&values, &queries);
    }

    #[test]
    fn duplicate_boundaries_and_all_equal_values() {
        let values = [4.0; 9];
        let queries = [q(4.0, 4.0), q(4.0, 4.0), q(0.0, 4.0), q(4.0, 8.0)];
        assert_matches_baseline(&values, &queries);
        assert_matches_baseline(&[], &queries);
        assert_matches_baseline(&values, &[]);
    }

    /// Signed-zero bounds over zero-valued samples: `-0.0` and `+0.0`
    /// are distinct under `total_cmp` but equal under the resolution
    /// predicates, so probe keys must collapse them — otherwise an
    /// upper probe at `-0.0` sorts before a lower probe at `+0.0` yet
    /// resolves to a larger position, stranding the forward-only
    /// cursor. This is the exact regression: `[-1, -0.0]` then
    /// `[0.0, 1]` over `[0.0]` must give `(0, 1)` for the second query.
    #[test]
    fn signed_zero_bounds_match_baseline() {
        assert_matches_baseline(&[0.0], &[q(-1.0, -0.0), q(0.0, 1.0)]);
        let values = [-2.0, -0.0, -0.0, 0.0, 0.0, 0.0, 3.0];
        let zeros = [-0.0, 0.0];
        let mut queries = Vec::new();
        for lower in zeros {
            for upper in zeros {
                queries.push(q(lower, upper));
            }
            queries.push(q(-5.0, lower));
            queries.push(q(lower, 5.0));
        }
        // Interleave non-zero boundaries so the cursor crosses the zero
        // run from both sides in one sweep.
        queries.push(q(-2.0, -0.0));
        queries.push(q(0.0, 3.0));
        assert_matches_baseline(&values, &queries);
        // Sparse mode (gallop) must collapse the zeros too.
        let wide: Vec<f64> = (0..4096).map(|i| i as f64 - 2048.0).collect();
        assert_matches_baseline(&wide, &[q(-9.0, -0.0), q(0.0, 9.0)]);
    }

    #[test]
    fn dense_grids_exercise_every_gallop_window() {
        let values: Vec<f64> = (0..257).map(|i| (i / 3) as f64).collect();
        let queries: Vec<RangeQuery> = (0..64)
            .map(|i| {
                let lower = ((i * 37) % 90) as f64;
                q(lower, lower + ((i * 13) % 17) as f64)
            })
            .collect();
        assert_matches_baseline(&values, &queries);
    }

    #[test]
    fn the_sweep_needs_a_large_dense_batch_over_large_arrays() {
        let (q, s) = (SWEEP_MIN_QUERIES, SWEEP_MIN_ENTRIES);
        assert_eq!(batch_resolver(q, s), BatchResolver::Sweep);
        assert_eq!(batch_resolver(q - 1, s), BatchResolver::PartitionPoint);
        assert_eq!(batch_resolver(q, s - 1), BatchResolver::PartitionPoint);
        // Probes `MERGE_GAP_MAX` entries apart would gallop.
        let sparse = 2 * q * MERGE_GAP_MAX;
        assert_eq!(batch_resolver(q, sparse - 1), BatchResolver::Sweep);
        assert_eq!(batch_resolver(q, sparse), BatchResolver::PartitionPoint);
        assert_eq!(batch_resolver(0, 0), BatchResolver::PartitionPoint);
        assert_eq!(batch_resolver(1, usize::MAX), BatchResolver::PartitionPoint);
    }

    /// Chunking a batch cannot change any resolved position — the
    /// per-chunk sweeps and the whole-batch sweep agree exactly.
    #[test]
    fn chunked_and_whole_batch_sweeps_agree() {
        let values: Vec<f64> = (0..100).map(|i| ((i * 7) % 23) as f64).collect();
        let mut values = values;
        values.sort_by(f64::total_cmp);
        let queries: Vec<RangeQuery> = (0..31)
            .map(|i| {
                let lower = ((i * 11) % 20) as f64;
                q(lower, lower + ((i * 5) % 7) as f64)
            })
            .collect();
        let whole = resolve_batch(&values, &queries);
        for chunk_len in 1..=queries.len() {
            let mut pos_l = Vec::new();
            let mut pos_u = Vec::new();
            for chunk in queries.chunks(chunk_len) {
                let part = resolve_batch(&values, chunk);
                pos_l.extend(part.pos_l);
                pos_u.extend(part.pos_u);
            }
            assert_eq!(pos_l, whole.pos_l, "chunk_len {chunk_len}");
            assert_eq!(pos_u, whole.pos_u, "chunk_len {chunk_len}");
        }
    }
}
