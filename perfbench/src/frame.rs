//! Parser for the server's metrics frame: the Prometheus-style text
//! exposition `Client::metrics` returns and
//! `jigsaw_core::telemetry::Registry::render_text` renders.
//!
//! Only sample lines matter here: `name value` or
//! `name{key="value",...} value`. Comment (`#`) and blank lines are
//! skipped. Label sets are stored sorted, so a lookup does not depend on
//! the order the exposition printed them in.

use std::collections::BTreeMap;

type SeriesKey = (String, Vec<(String, String)>);

/// One scrape of a metrics frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsFrame {
    samples: BTreeMap<SeriesKey, f64>,
}

impl MetricsFrame {
    /// Parses an exposition text.
    ///
    /// # Errors
    ///
    /// Names the first line that is not a well-formed sample.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut samples = BTreeMap::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |why: &str| format!("metrics line {}: {why}: {line:?}", number + 1);
            let (series, value) = line.rsplit_once(' ').ok_or_else(|| bad("no value"))?;
            let value: f64 = value.parse().map_err(|_| bad("value is not a number"))?;
            let (name, labels) = match series.split_once('{') {
                None => (series, Vec::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').ok_or_else(|| bad("unclosed label set"))?;
                    (name, parse_labels(body).ok_or_else(|| bad("malformed label set"))?)
                }
            };
            if name.is_empty() {
                return Err(bad("empty metric name"));
            }
            samples.insert((name.to_owned(), labels), value);
        }
        Ok(Self { samples })
    }

    /// The sample of `name` with exactly `labels`; 0 when the series is
    /// absent (a counter nothing has incremented is not registered yet).
    #[must_use]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
        labels.sort();
        self.samples.get(&(name.to_owned(), labels)).copied().unwrap_or(0.0)
    }

    /// `(sum, count)` of the histogram `name` with exactly `labels`.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> (f64, f64) {
        (self.get(&format!("{name}_sum"), labels), self.get(&format!("{name}_count"), labels))
    }
}

/// `key="value",key="value"` → sorted pairs. Values may contain `\"`,
/// `\\` and `\n` escapes.
fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        let mut value = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            let (i, c) = chars.next()?;
            match c {
                '"' => break i,
                '\\' => match chars.next()?.1 {
                    'n' => value.push('\n'),
                    other => value.push(other),
                },
                c => value.push(c),
            }
        };
        labels.push((key.trim().to_owned(), value));
        rest = after[end + 1..].strip_prefix(',').unwrap_or(&after[end + 1..]);
    }
    labels.sort();
    Some(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME: &str = "\
# TYPE jigsaw_server_cache_hits_total counter
jigsaw_server_cache_hits_total 17
# TYPE jigsaw_dist_shards_total counter
jigsaw_dist_shards_total{outcome=\"ok\"} 7
jigsaw_dist_shards_total{outcome=\"error\"} 1
# TYPE jigsaw_sched_queue_wait_seconds histogram
jigsaw_sched_queue_wait_seconds_bucket{lane=\"interactive\",le=\"0.001\"} 3
jigsaw_sched_queue_wait_seconds_bucket{lane=\"interactive\",le=\"+Inf\"} 5
jigsaw_sched_queue_wait_seconds_sum{lane=\"interactive\"} 0.0125
jigsaw_sched_queue_wait_seconds_count{lane=\"interactive\"} 5
";

    #[test]
    fn reads_counters_with_and_without_labels() {
        let frame = MetricsFrame::parse(FRAME).unwrap();
        assert_eq!(frame.get("jigsaw_server_cache_hits_total", &[]), 17.0);
        assert_eq!(frame.get("jigsaw_dist_shards_total", &[("outcome", "ok")]), 7.0);
        assert_eq!(frame.get("jigsaw_dist_shards_total", &[("outcome", "error")]), 1.0);
    }

    #[test]
    fn reads_histogram_sum_and_count() {
        let frame = MetricsFrame::parse(FRAME).unwrap();
        let (sum, count) =
            frame.histogram("jigsaw_sched_queue_wait_seconds", &[("lane", "interactive")]);
        assert_eq!((sum, count), (0.0125, 5.0));
    }

    #[test]
    fn label_order_does_not_matter() {
        let frame = MetricsFrame::parse(FRAME).unwrap();
        let a = frame.get(
            "jigsaw_sched_queue_wait_seconds_bucket",
            &[("le", "+Inf"), ("lane", "interactive")],
        );
        assert_eq!(a, 5.0);
    }

    #[test]
    fn absent_series_read_as_zero() {
        let frame = MetricsFrame::parse(FRAME).unwrap();
        assert_eq!(frame.get("jigsaw_server_cache_misses_total", &[]), 0.0);
        assert_eq!(frame.get("jigsaw_dist_shards_total", &[("outcome", "lost")]), 0.0);
        assert_eq!(MetricsFrame::parse("# only\n\n").unwrap(), MetricsFrame::default());
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let frame = MetricsFrame::parse("m{a=\"x\\\"y\",b=\"1,2\"} 4\n").unwrap();
        assert_eq!(frame.get("m", &[("b", "1,2"), ("a", "x\"y")]), 4.0);
    }

    #[test]
    fn malformed_lines_are_refused_with_their_line_number() {
        for text in ["m", "m{a=\"1\" 3", "m abc", "{a=\"1\"} 2", "m{a=1} 2"] {
            let err = MetricsFrame::parse(&format!("# ok\n{text}\n")).unwrap_err();
            assert!(err.starts_with("metrics line 2"), "{text:?}: {err}");
        }
    }
}
