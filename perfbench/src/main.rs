//! End-to-end broker benchmark.
//!
//! ```text
//! prc-perfbench --workload <market|drift|batch|monitor> --seed <n>
//!               --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! One client thread drives the broker in a closed loop: every call
//! waits for its reply before the next is sent. With `--trace 0` the run
//! repeats identical episodes through the public entry points
//! (`answer_as`, `answer_batch`, `answer_epoch`) for `--seconds` and
//! prints the end-to-end metrics; with `--trace 1` it drives one episode
//! through each layer's public parts inside in-memory spans, prints the
//! per-layer metrics, and writes the spans to `--spans-dir`. Either way
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is non-zero if
//! any correctness check failed.

mod batch;
mod common;
mod episodes;
mod gen;
mod json;
mod market;
mod monitor;
mod stats;
mod trace;

use std::process::ExitCode;

use common::Args;
use json::{Json, Metric};

/// The workloads, in the order the documentation lists them.
const WORKLOADS: [&str; 4] = ["market", "drift", "batch", "monitor"];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Episodes the run measured.
    pub episodes: usize,
    /// The metrics the mode reports.
    pub metrics: Vec<Metric>,
    /// Each correctness check and whether it held.
    pub checks: Vec<(&'static str, bool)>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, name: &'static str, held: bool) {
        self.checks.push((name, held));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1) && self.attempted > 0
    }
}

fn usage() -> String {
    format!(
        "usage: prc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--spans-dir <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--spans-dir" => spans_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "market" => market::run(&args, false),
        "drift" => market::run(&args, true),
        "batch" => batch::run(&args),
        _ => monitor::run(&args),
    };
    let correct = outcome.correct();
    let report = Json::obj([
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("episodes", Json::Int(outcome.episodes as u64)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "runtime_workers",
            Json::Int(prc_runtime::Runtime::global().worker_count() as u64),
        ),
        (
            "checks",
            Json::Obj(
                outcome
                    .checks
                    .iter()
                    .map(|&(name, held)| (name.to_owned(), Json::Bool(held)))
                    .collect(),
            ),
        ),
        ("metrics", json::metric_table(&outcome.metrics)),
    ]);
    println!("{}", report.render());
    println!(
        "{}",
        json::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        for (name, held) in &outcome.checks {
            if !held {
                eprintln!("check failed: {name}");
            }
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_command_line_parses() {
        let a = args("--workload batch --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("batch", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload market --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload market --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload market --seconds 1").is_err());
        assert!(args("--workload market --seed 1 --seconds 1 --bogus 1").is_err());
    }
}
