//! The benchmark's JSON output: the one-line result object and the span
//! file of a traced run. Numbers are written with every digit Rust's
//! shortest round-trip formatting gives.

use std::fmt::Write as _;

/// A measured metric as it appears in the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `job_s.p50`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s` or `1/s`.
    pub unit: &'static str,
}

/// A JSON string literal for `s`.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v`.
///
/// # Panics
///
/// Panics on NaN or an infinity, which JSON cannot carry: a metric that
/// computes one is a defect of the benchmark, not a measurement.
#[must_use]
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    // `{:?}` keeps a trailing `.0` on integral values, which JSON accepts,
    // and prints the shortest string that parses back to the same f64.
    format!("{v:?}")
}

/// The result line:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let metrics = [
            Metric { name: "job_s.p50", value: 1.25, unit: "s" },
            Metric { name: "jobs_per_s", value: 0.8, unit: "1/s" },
        ];
        assert_eq!(
            result_line(true, 12, 0, &metrics),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"job_s.p50\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"jobs_per_s\": {\"value\": 0.8, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        let v = 0.1 + 0.2;
        assert_eq!(number(v), "0.30000000000000004");
        assert_eq!(number(v).parse::<f64>().unwrap(), v);
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(-2.5e-7), "-2.5e-7");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_values_are_refused() {
        let _ = number(f64::NAN);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn empty_metrics_still_form_an_object() {
        assert_eq!(
            result_line(false, 1, 1, &[]),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
