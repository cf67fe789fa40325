//! A minimal JSON emitter (the build has no registry access, so no
//! serde_json) and the benchmark's result line.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders on one line. Numbers print with all their digits (Rust's
    /// shortest round-trip form, never exponent notation).
    ///
    /// # Panics
    /// Panics on a non-finite number: JSON cannot carry one, and a metric
    /// that is NaN or infinite is a bug in the harness.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String"),
            Json::Num(x) => {
                assert!(x.is_finite(), "non-finite number in JSON output: {x}");
                write!(out, "{x}").expect("writing to a String");
            }
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(key, out);
                    out.push_str(": ");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// `true` for the metric names the benchmark contract admits: a leading
/// letter or digit, then letters, digits, `_`, `.`, `-`; at most 64.
pub fn valid_name(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `true` for the units the contract admits: 1 to 16 letters, digits,
/// `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The last line of standard output: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
///
/// # Panics
/// Panics on a metric name or unit outside the contract's alphabet, or
/// used twice.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let metrics = metrics.iter().map(|m| {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?}", m.unit);
        assert!(seen.insert(m.name), "metric {:?} reported twice", m.name);
        let body = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
        (m.name, body)
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric {
                    name: "latency_ms",
                    unit: "ms",
                    value: 1.2034,
                },
                Metric {
                    name: "core.view.quote_ns_p99.9",
                    unit: "ns",
                    value: 812.0,
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"core.view.quote_ns_p99.9\": {\"value\": 812, \"unit\": \"ns\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn names_and_units_follow_the_contract_alphabet() {
        for ok in ["node_tps", "core.view.quote_ns_p99.9", "9lives", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "has space", "tx/s", "naïve"] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_name(&"x".repeat(65)));
        for ok in ["tx/s", "%", "ms", "quotes/s", "sim_s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "sim s", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn a_bad_metric_name_is_refused() {
        let bad = Metric {
            name: "quote p99",
            unit: "ns",
            value: 1.0,
        };
        result_line(true, 1, 0, &[bad]);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn a_repeated_metric_name_is_refused() {
        let m = Metric {
            name: "node_tps",
            unit: "tx/s",
            value: 1.0,
        };
        result_line(true, 1, 0, &[m.clone(), m]);
    }

    #[test]
    fn numbers_keep_their_digits_and_never_use_exponents() {
        assert_eq!(Json::Num(0.000_000_123).render(), "0.000000123");
        assert_eq!(Json::Num(1.0e15).render(), "1000000000000000");
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_are_refused() {
        Json::Num(f64::NAN).render();
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
        let nested = Json::obj([(
            "k",
            Json::Arr(vec![Json::Int(1), Json::Bool(false), Json::Null]),
        )]);
        assert_eq!(nested.render(), "{\"k\": [1, false, null]}");
    }
}
