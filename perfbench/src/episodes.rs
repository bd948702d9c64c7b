//! The episode runner every workload shares.
//!
//! A run is a sequence of identical episodes: a fresh set-up (network,
//! broker, warm-up), then the same fixed list of calls. Episodes repeat
//! until `--seconds` have passed, and at least [`MIN_EPISODES`] times.
//! Because every episode makes the same calls on the same state, each
//! call's time is taken as its minimum over episodes (min-of-N per call),
//! and `call_p50_us` and `answers_per_s` are computed from those minima:
//! a stretch of seconds in which other load on the machine slows every
//! call then moves nothing unless it covers the whole run. `call_p99_us`
//! is the median over episodes of each episode's own p99: a tail that the
//! buyers of a typical episode really saw, which a slowdown of a few
//! percent of the calls in every episode raises. `setup_s` is the fastest
//! set-up, for the same reason as the per-call minima. The first episode
//! is also the deterministic window: its coverage, `ε′` and message
//! counts repeat exactly for a seed. Every episode must release the first
//! episode's bits.

use std::time::{Duration, Instant};

use crate::common::{end_to_end, per_layer, status_mb, write_spans, Args, Layers, Window};
use crate::stats;
use crate::trace::Tracer;
use crate::Outcome;

/// Episodes every untraced run measures at least.
pub const MIN_EPISODES: usize = 3;

/// One timed call: an `answer_as`, an `answer_batch` or an
/// `answer_epoch`.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Time inside the call.
    pub took: Duration,
    /// Requests the call carried.
    pub attempted: u64,
    /// Answers it released.
    pub answers: u64,
    /// Digest of the released values, to compare runs bit for bit.
    pub bits: u64,
}

/// Bits standing for a failed request in a digest.
pub const FAILED_BITS: u64 = u64::MAX;

/// Folds `bits` into a running digest.
pub fn fold(digest: u64, bits: u64) -> u64 {
    let mut z = (digest ^ bits).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One traced episode.
#[derive(Debug)]
pub struct Traced {
    /// Digest of the released values, as [`Call::bits`] folds them.
    pub digest: u64,
    /// Time inside the traced root spans, ns.
    pub root_ns: u64,
    /// Counter movement and gauges.
    pub layers: Layers,
    /// The spans.
    pub tracer: Tracer,
}

/// A workload: its set-up, its calls, and its traced episode.
pub trait Workload {
    /// What serves the calls: a broker or a monitor, with its warm-up done.
    type Server;

    /// Calls per episode.
    fn calls(&self) -> usize;

    /// Builds a server ready to take the first call.
    fn setup(&self) -> Self::Server;

    /// Call `k` of an episode through the public entry point. With a
    /// window, records what the deterministic window reports.
    fn call(&self, server: &mut Self::Server, k: usize, window: Option<&mut Window>) -> Call;

    /// Closes an episode: adds the server's life-long message and answer
    /// counts to the window, and returns whether the accountant's spend
    /// equals the `ε′` the released plans committed.
    fn finish(&self, server: &Self::Server, window: Option<&mut Window>) -> bool;

    /// One episode driven through each layer's public parts inside
    /// spans; records its own correctness checks.
    fn traced(&self, outcome: &mut Outcome) -> Traced;
}

/// Runs `workload` in the mode `args` asks for.
pub fn run<W: Workload>(workload: &W, args: &Args) -> Outcome {
    assert!(
        workload.calls() >= stats::min_samples_for(0.99),
        "an episode needs enough calls for its p99"
    );
    if args.trace {
        traced(workload, args)
    } else {
        untraced(workload, args)
    }
}

fn untraced<W: Workload>(workload: &W, args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut window = Window::default();
    let mut best = vec![u64::MAX; workload.calls()];
    let mut took = Vec::with_capacity(workload.calls());
    let (mut setups, mut p99s) = (Vec::new(), Vec::new());
    let (mut answers, mut first_digest, mut same, mut spent) = (0, None, true, true);
    // Memory the inputs hold; the peak above it is what serving added.
    let inputs_mb = status_mb("VmRSS");
    let started = Instant::now();
    while setups.len() < MIN_EPISODES || started.elapsed().as_secs_f64() < args.seconds {
        let first = setups.is_empty();
        let start = Instant::now();
        let mut server = workload.setup();
        setups.push(start.elapsed().as_secs_f64());
        let mut digest = 0;
        took.clear();
        for (k, best) in best.iter_mut().enumerate() {
            let call = workload.call(&mut server, k, first.then_some(&mut window));
            let ns = call.took.as_nanos() as u64;
            *best = (*best).min(ns);
            took.push(ns);
            outcome.attempted += call.attempted;
            outcome.failed += call.attempted - call.answers;
            if first {
                answers += call.answers;
            }
            digest = fold(digest, call.bits);
        }
        took.sort_unstable();
        p99s.push(stats::percentile(&took, 0.99).expect("enough calls") as f64 / 1e3);
        spent &= workload.finish(&server, first.then_some(&mut window));
        drop(server);
        if first {
            window.peak_rss_mb = status_mb("VmHWM") - inputs_mb;
        }
        same &= *first_digest.get_or_insert(digest) == digest;
    }
    outcome.check("accountant spent equals the committed plans' sum", spent);
    outcome.check("every episode releases the first episode's bits", same);
    outcome.check(
        "coverage is at least the lowest demanded confidence",
        window.coverage() >= window.min_delta,
    );
    let in_calls = best.iter().sum::<u64>() as f64 / 1e9;
    best.sort_unstable();
    let p50_us = stats::percentile(&best, 0.5).expect("enough calls") as f64 / 1e3;
    outcome.episodes = setups.len();
    outcome.metrics = end_to_end(
        answers as f64 / in_calls,
        p50_us,
        stats::median(&p99s),
        workload.calls(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        &outcome,
        &window,
    );
    outcome
}

fn traced<W: Workload>(workload: &W, args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut traced = workload.traced(&mut outcome);

    // The same episode through the public entry points.
    let mut server = workload.setup();
    let (mut untraced_ns, mut digest) = (0u128, 0);
    for k in 0..workload.calls() {
        let call = workload.call(&mut server, k, None);
        untraced_ns += call.took.as_nanos();
        digest = fold(digest, call.bits);
    }
    outcome.check(
        "untraced accountant spent equals the committed plans' sum",
        workload.finish(&server, None),
    );
    outcome.check(
        "the traced episode releases the untraced episode's bits",
        traced.digest == digest,
    );
    traced.layers.overhead_frac = traced.root_ns as f64 / untraced_ns as f64 - 1.0;
    write_spans(args, &traced.tracer);
    outcome.episodes = 1;
    outcome.metrics = per_layer(&traced.layers, traced.tracer.spans());
    outcome
}
