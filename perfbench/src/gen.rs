//! The seeded workload generator shared by every workload.
//!
//! Everything a run feeds the broker comes from here and from the seed
//! alone: the CityPulse-like value streams, the Zipf-skewed range pool,
//! the 16-tier accuracy mix, the buyer rotation and the drift schedule.

use prc_core::query::{Accuracy, QueryRequest, RangeQuery};
use prc_data::generator::CityPulseGenerator;
use prc_data::record::PollutionRecord;
use prc_data::time::Timestamp;

/// The accuracy tiers: every `α` of this list with every `δ` of [`DELTAS`].
pub const ALPHAS: [f64; 4] = [0.01, 0.02, 0.05, 0.1];
/// The confidence half of the tier grid.
pub const DELTAS: [f64; 4] = [0.6, 0.7, 0.8, 0.9];
/// Number of accuracy tiers in the mix.
pub const TIERS: usize = ALPHAS.len() * DELTAS.len();
/// Distinct ranges in the pool the request stream draws from.
pub const POOL_RANGES: usize = 16_384;
/// Zipf exponent of range popularity.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Buyers the priced stream rotates through.
pub const BUYERS: usize = 8;
/// Requests between two drift steps.
pub const DRIFT_STEP_REQUESTS: u64 = 1_000;
/// Factor the drift applies to every tier's `α` at each step.
pub const DRIFT_FACTOR: f64 = 0.97;
/// Drift steps in one episode. The tightest tier then needs about 21%
/// sampling over the 1024-node network, so collection never reaches
/// full sampling and every step still runs a round.
pub const DRIFT_STEPS: u64 = 32;
/// Value bounds of the generated ozone readings.
pub const VALUE_BOUNDS: (f64, f64) = (0.0, 200.0);
/// When the generated readings start: 2014-08-01 00:00 UTC, as the
/// CityPulse pollution data does.
const START: Timestamp = Timestamp(1_406_851_200);

/// SplitMix64: a small, fast generator whose whole state is the seed, so
/// inputs never depend on a library's RNG version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed; `stream` separates the
    /// independent draws (values, ranges, request mix) of a run.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Records generated at a time by [`ozone_values`].
const VALUE_CHUNK: usize = 16_384;

/// `count` CityPulse-like ozone readings for `seed`, at 5-min cadence.
/// They are generated [`VALUE_CHUNK`] records at a time, each chunk from
/// its own seed and starting where the last one ended, so that the whole
/// records never sit in memory together.
pub fn ozone_values(seed: u64, count: usize) -> Vec<f64> {
    const INTERVAL: i64 = 300;
    let mut seeds = Rng::new(seed, 3);
    let mut values = Vec::with_capacity(count);
    while values.len() < count {
        let chunk = CityPulseGenerator::new(seeds.next_u64())
            .record_count(VALUE_CHUNK.min(count - values.len()))
            .interval_seconds(INTERVAL)
            .start(START.plus_seconds(values.len() as i64 * INTERVAL))
            .value_bounds(VALUE_BOUNDS.0, VALUE_BOUNDS.1)
            .generate();
        values.extend(chunk.records().iter().map(|r| r.ozone));
    }
    values
}

/// One day of CityPulse-like records at 1-s cadence; [`stream_record`]
/// cycles it into an endless stream.
pub fn citypulse_day(seed: u64) -> Vec<PollutionRecord> {
    CityPulseGenerator::new(seed)
        .record_count(86_400)
        .interval_seconds(1)
        .start(START)
        .generate()
        .into_records()
}

/// Record `g` of the endless 1-s stream built from `day`: the day's
/// records repeat, with timestamps that keep counting up.
pub fn stream_record(day: &[PollutionRecord], g: u64) -> PollutionRecord {
    let mut record = day[(g % day.len() as u64) as usize];
    record.timestamp = day[0].timestamp.plus_seconds(g as i64);
    record
}

/// A pool of ranges with Zipf-distributed popularity.
#[derive(Debug, Clone)]
pub struct RangePool {
    ranges: Vec<RangeQuery>,
    cdf: Vec<f64>,
}

impl RangePool {
    /// [`POOL_RANGES`] ranges over [`VALUE_BOUNDS`] for `seed`; rank 0
    /// is the most popular. Widths (2 to 60) and positions follow two
    /// Weyl sequences over the ranks, so every seed's pool covers widths
    /// and positions evenly and popular ranges cost about the same for
    /// every seed; the seed shifts the positions.
    pub fn new(seed: u64) -> Self {
        let shift = Rng::new(seed, 1).next_f64();
        let (lo, hi) = VALUE_BOUNDS;
        let frac = |x: f64| x - x.floor();
        let ranges = (1..=POOL_RANGES)
            .map(|r| {
                let r = r as f64;
                let width = 2.0 + 58.0 * frac(r * 0.618_033_988_749_894_9);
                let lower = lo + frac(shift + r * 0.414_213_562_373_095_1) * (hi - lo - width);
                RangeQuery::new(lower, lower + width).expect("lower < upper inside the bounds")
            })
            .collect();
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=POOL_RANGES)
            .map(|rank| {
                total += (rank as f64).powf(-ZIPF_EXPONENT);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        RangePool { ranges, cdf }
    }

    /// A Zipf draw from the pool.
    pub fn draw(&self, rng: &mut Rng) -> RangeQuery {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c <= u).min(POOL_RANGES - 1);
        self.ranges[rank]
    }

    /// The most popular range.
    pub fn top(&self) -> RangeQuery {
        self.ranges[0]
    }
}

/// One generated request: the range, its tier and its buyer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Draw {
    /// The queried range.
    pub query: RangeQuery,
    /// Index into the tier grid, `0..TIERS`.
    pub tier: usize,
    /// Index of the buyer, `0..BUYERS`.
    pub buyer: usize,
}

impl Draw {
    /// The request at the tier's accuracy, with every `α` scaled by
    /// `alpha_scale` (the drift factor; `1.0` without drift).
    pub fn request(&self, alpha_scale: f64) -> QueryRequest {
        QueryRequest::new(self.query, tier_accuracy(self.tier, alpha_scale))
    }
}

/// The accuracy of `tier` with its `α` scaled by `alpha_scale`.
pub fn tier_accuracy(tier: usize, alpha_scale: f64) -> Accuracy {
    Accuracy::new(
        ALPHAS[tier / DELTAS.len()] * alpha_scale,
        DELTAS[tier % DELTAS.len()],
    )
    .expect("tier accuracies lie inside (0, 1)")
}

/// One request per tier over `query`, tightest tier first. A warm-up
/// that starts with it samples the network for every tier in its first
/// round, so how many rounds the warm-up runs does not hang on the order
/// in which the random stream first meets each tier.
pub fn tier_sweep(query: RangeQuery) -> Vec<Draw> {
    let mut tiers: Vec<usize> = (0..TIERS).collect();
    // Theorem 3.3: the required sampling rate falls as α·√(1−δ) grows.
    let looseness = |t: usize| {
        let accuracy = tier_accuracy(t, 1.0);
        accuracy.alpha() * (1.0 - accuracy.delta()).sqrt()
    };
    tiers.sort_by(|&a, &b| looseness(a).total_cmp(&looseness(b)));
    tiers
        .into_iter()
        .enumerate()
        .map(|(i, tier)| Draw {
            query,
            tier,
            buyer: i % BUYERS,
        })
        .collect()
}

/// The endless request stream of one seed: Zipf ranges, a uniform tier
/// mix and buyers in rotation.
#[derive(Debug, Clone)]
pub struct RequestStream {
    pool: RangePool,
    rng: Rng,
    issued: u64,
}

impl RequestStream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Self {
        RequestStream {
            pool: RangePool::new(seed),
            rng: Rng::new(seed, 2),
            issued: 0,
        }
    }

    /// The most popular range of the stream's pool.
    pub fn top(&self) -> RangeQuery {
        self.pool.top()
    }

    /// The next request.
    pub fn next_draw(&mut self) -> Draw {
        let query = self.pool.draw(&mut self.rng);
        let tier = self.rng.below(TIERS);
        let buyer = (self.issued % BUYERS as u64) as usize;
        self.issued += 1;
        Draw { query, tier, buyer }
    }

    /// A warm-up of `n` requests: the [`tier_sweep`] over the most
    /// popular range, then the stream's next `n - TIERS` requests.
    pub fn warmup(&mut self, n: usize) -> Vec<Draw> {
        let mut draws = tier_sweep(self.pool.top());
        draws.extend(self.take(n - TIERS));
        draws
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<Draw> {
        (0..n).map(|_| self.next_draw()).collect()
    }
}

/// The drift schedule: the `α` scale of the `j`-th request of an episode.
pub fn drift_scale(j: u64) -> f64 {
    DRIFT_FACTOR.powi((j / DRIFT_STEP_REQUESTS) as i32)
}

/// Requests in one drift episode.
pub const DRIFT_EPISODE_REQUESTS: u64 = DRIFT_STEPS * DRIFT_STEP_REQUESTS;

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(seed: u64) -> Vec<u64> {
        let mut stream = RequestStream::new(seed);
        let mut bits = Vec::new();
        for draw in stream.take(2_000) {
            bits.push(draw.query.lower().to_bits());
            bits.push(draw.query.upper().to_bits());
            bits.push(draw.tier as u64);
            bits.push(draw.buyer as u64);
        }
        bits.extend(ozone_values(seed, 500).iter().map(|v| v.to_bits()));
        let day = citypulse_day(seed);
        bits.extend((0..500).map(|g| stream_record(&day, g).ozone.to_bits()));
        bits
    }

    #[test]
    fn one_seed_gives_identical_inputs() {
        assert_eq!(fingerprint(7), fingerprint(7));
    }

    #[test]
    fn two_seeds_give_different_inputs() {
        let (a, b) = (fingerprint(7), fingerprint(8));
        assert_ne!(a, b);
        // Every component differs, not just one.
        assert_ne!(a[..8_000], b[..8_000]);
        assert_ne!(a[8_000..8_500], b[8_000..8_500]);
        assert_ne!(a[8_500..], b[8_500..]);
    }

    #[test]
    fn zipf_favours_low_ranks_and_tiers_cover_the_grid() {
        let mut stream = RequestStream::new(3);
        let top = RangePool::new(3).top();
        assert_eq!(stream.top(), top);
        let draws = stream.take(20_000);
        let top_share = draws.iter().filter(|d| d.query == top).count() as f64 / 20_000.0;
        // Rank 0 has probability 1/H(16384) ≈ 0.097.
        assert!((0.08..0.115).contains(&top_share), "top share {top_share}");
        let mut seen = [false; TIERS];
        for d in &draws {
            seen[d.tier] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(draws[9].buyer, 9 % BUYERS);
    }

    #[test]
    fn stream_timestamps_keep_increasing_across_days() {
        let day = citypulse_day(1);
        let a = stream_record(&day, 86_399);
        let b = stream_record(&day, 86_400);
        assert_eq!(b.timestamp.unix_seconds() - a.timestamp.unix_seconds(), 1);
        assert_eq!(b.ozone.to_bits(), day[0].ozone.to_bits());
    }

    #[test]
    fn the_sweep_starts_with_the_tightest_tier_and_covers_all() {
        let sweep = tier_sweep(RangePool::new(1).top());
        let first = tier_accuracy(sweep[0].tier, 1.0);
        assert_eq!((first.alpha(), first.delta()), (0.01, 0.9));
        let last = tier_accuracy(sweep[TIERS - 1].tier, 1.0);
        assert_eq!((last.alpha(), last.delta()), (0.1, 0.6));
        let mut tiers: Vec<usize> = sweep.iter().map(|d| d.tier).collect();
        tiers.sort_unstable();
        assert_eq!(tiers, (0..TIERS).collect::<Vec<_>>());
    }

    #[test]
    fn drift_tightens_three_percent_per_step() {
        assert_eq!(drift_scale(0), 1.0);
        assert_eq!(drift_scale(999), 1.0);
        assert!((drift_scale(1_000) - 0.97).abs() < 1e-15);
        let last = drift_scale(DRIFT_EPISODE_REQUESTS - 1);
        assert!((last - 0.97f64.powi(31)).abs() < 1e-15);
    }
}
