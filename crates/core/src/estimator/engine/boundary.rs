//! The shared lower/upper boundary lookup — the single
//! two-`partition_point` seam every estimator path resolves through.

use prc_net::message::SampleEntry;

use crate::query::RangeQuery;

/// Resolves a query's two boundary positions in a slice sorted
/// ascending by `key`.
///
/// Returns `(pos_l, pos_u)` where `pos_l` is the first position whose
/// key is `>= query.lower()` and `pos_u` the first whose key is
/// `> query.upper()` — so `pos_u - pos_l` items fall inside the closed
/// range, `pos_l` names a node-local predecessor candidate at
/// `pos_l - 1`, and `pos_u` a successor candidate. These are exactly
/// `partition_point(key < lower)` and `partition_point(key <= upper)`;
/// the sorted-batch sweep must return the same indices bit-for-bit.
pub fn boundary_ranks_by<T>(
    items: &[T],
    query: RangeQuery,
    key: impl Fn(&T) -> f64,
) -> (usize, usize) {
    let pos_l = items.partition_point(|item| key(item) < query.lower());
    let pos_u = items.partition_point(|item| key(item) <= query.upper());
    (pos_l, pos_u)
}

/// [`boundary_ranks_by`] over a plain sorted value slice.
pub fn boundary_ranks(values: &[f64], query: RangeQuery) -> (usize, usize) {
    boundary_ranks_by(values, query, |&v| v)
}

/// [`boundary_ranks_by`] over a node's rank-sorted sample entries
/// (sorted by value, since local rank order is value order).
pub fn entry_boundary_ranks(entries: &[SampleEntry], query: RangeQuery) -> (usize, usize) {
    boundary_ranks_by(entries, query, |e| e.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(lower: f64, upper: f64) -> RangeQuery {
        RangeQuery::new(lower, upper).expect("valid range")
    }

    #[test]
    fn boundaries_bracket_the_closed_range() {
        let values = [1.0, 2.0, 2.0, 2.0, 5.0, 8.0];
        assert_eq!(boundary_ranks(&values, q(2.0, 5.0)), (1, 5));
        assert_eq!(boundary_ranks(&values, q(2.0, 2.0)), (1, 4));
        assert_eq!(boundary_ranks(&values, q(0.0, 0.5)), (0, 0));
        assert_eq!(boundary_ranks(&values, q(9.0, 10.0)), (6, 6));
        assert_eq!(boundary_ranks(&values, q(0.0, 100.0)), (0, 6));
    }

    #[test]
    fn empty_and_all_equal_slices() {
        assert_eq!(boundary_ranks(&[], q(0.0, 1.0)), (0, 0));
        let same = [3.0; 7];
        assert_eq!(boundary_ranks(&same, q(3.0, 3.0)), (0, 7));
        assert_eq!(boundary_ranks(&same, q(0.0, 2.0)), (0, 0));
        assert_eq!(boundary_ranks(&same, q(4.0, 9.0)), (7, 7));
    }

    #[test]
    fn entry_flavour_keys_on_value() {
        let entries: Vec<SampleEntry> = [1.0, 4.0, 4.0, 9.0]
            .iter()
            .enumerate()
            .map(|(i, &value)| SampleEntry {
                value,
                rank: (i + 1) as u32,
            })
            .collect();
        assert_eq!(entry_boundary_ranks(&entries, q(2.0, 4.0)), (1, 3));
        let plain: Vec<f64> = entries.iter().map(|e| e.value).collect();
        for (l, u) in [(0.0, 0.5), (1.0, 9.0), (4.0, 4.0), (10.0, 11.0)] {
            assert_eq!(
                entry_boundary_ranks(&entries, q(l, u)),
                boundary_ranks(&plain, q(l, u))
            );
        }
    }
}
