//! A hand-written JSON writer for the benchmark's output, and the metric
//! table every printed metric must come from.

use std::fmt::Write;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as in `ms`, `1/s` or `count`.
    pub unit: &'static str,
    /// Which way the metric improves.
    pub better: Better,
    /// The measured value.
    pub value: f64,
    /// Samples behind a percentile, when the metric is one.
    pub samples: Option<usize>,
}

/// True when `name` is a non-empty run of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// True when `unit` is 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A whole number.
    Int(u64),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered list.
    Arr(Vec<Json>),
    /// An object whose keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key-value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value as one line of JSON.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite number, which JSON cannot carry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String"),
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON has no {x}");
                // `{:?}` prints the shortest repr that reads back to the
                // same bits and always keeps a `.` or an exponent.
                write!(out, "{x:?}").expect("writing to a String");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("writing"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result line: `correct`, `attempted`, `failed`, and every metric's
/// value and unit.
///
/// # Panics
///
/// Panics on an invalid or repeated metric name.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    check_names(metrics);
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_owned(),
                            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// Every metric with its unit, better-direction and sample count.
///
/// # Panics
///
/// Panics on an invalid or repeated metric name.
pub fn metric_table(metrics: &[Metric]) -> Json {
    check_names(metrics);
    Json::Arr(
        metrics
            .iter()
            .map(|m| {
                let mut pairs = vec![
                    ("name", Json::str(m.name)),
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                ];
                if let Some(n) = m.samples {
                    pairs.push(("samples", Json::Int(n as u64)));
                }
                Json::obj(pairs)
            })
            .collect(),
    )
}

fn check_names(metrics: &[Metric]) {
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(m.name), "invalid metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?}", m.unit);
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "metric {} repeated",
            m.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit: "ms",
            better: Better::Lower,
            value,
            samples: None,
        }
    }

    #[test]
    fn names_are_restricted_to_the_metric_alphabet() {
        assert!(valid_name("stage.admit.self_ms"));
        assert!(valid_name("call_p99_us"));
        assert!(valid_name("a-b"));
        assert!(!valid_name(""));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a\"b"));
        assert!(!valid_name("é"));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit("much-too-long-unit"));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_fields() {
        let line = result_line(true, 10, 0, &[metric("latency_ms", 1.25), metric("x", 3.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"x\": {\"value\": 3.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn the_metric_table_carries_unit_direction_and_samples() {
        let mut m = metric("call_p50_us", 12.5);
        m.samples = Some(4_000);
        let table = metric_table(&[m]).render();
        assert_eq!(
            table,
            "[{\"name\": \"call_p50_us\", \"value\": 12.5, \"unit\": \"ms\", \
             \"better\": \"lower\", \"samples\": 4000}]"
        );
    }

    #[test]
    fn numbers_keep_all_their_digits_and_strings_are_escaped() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(1e-9).render(), "1e-9");
        assert_eq!(Json::str("a\"b\\c\n").render(), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_names_are_refused() {
        result_line(true, 1, 0, &[metric("a", 1.0), metric("a", 2.0)]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_refused() {
        result_line(true, 1, 0, &[metric("bad name", 1.0)]);
    }
}
