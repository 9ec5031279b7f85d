//! The metric catalogue and the per-run tally of checks and measurements.
//!
//! `END_TO_END` and `PER_LAYER` mirror the metric lists of the
//! repository's `BENCHMARK.json` (a test keeps them in step). An untraced
//! run prints exactly the end-to-end metrics, a traced run exactly the
//! per-layer ones; every workload measures every metric of its list.

use std::collections::BTreeMap;

use crate::json::Metric;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("cpu_s_per_job", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("job_s.p50", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s.samples", "count"),
    ("pipeline.plan_s", "s"),
    ("pipeline.select_subsets_s", "s"),
    ("pipeline.run_cpms_s", "s"),
    ("pipeline.stage_coverage", "ratio"),
    ("pipeline.timings_gap_s", "s"),
    ("pipeline.serial_job_s", "s"),
    ("pipeline.speedup_vs_serial", "ratio"),
    ("compiler.global_compile_s", "s"),
    ("compiler.cpm_compile_s", "s"),
    ("compiler.compiles", "count"),
    ("sim.global_run_s", "s"),
    ("sim.cpm_simulate_s", "s"),
    ("sim.trials_per_s", "1/s"),
    ("bayes.reconstruct_s", "s"),
    ("bayes.round_ms", "ms"),
    ("bayes.rounds", "count"),
    ("bayes.support", "count"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.bytes_per_request", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.rehydrations", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("sched.queue_wait_s.interactive", "s"),
    ("sched.queue_wait_s.sweep", "s"),
    ("sched.queue_wait_s.background", "s"),
    ("sched.batched_jobs", "count"),
    ("serve.interactive_ms.p50", "ms"),
    ("serve.interactive_ms.p95", "ms"),
    ("serve.background_jobs_per_s", "1/s"),
    ("serve.compiles_per_job", "count"),
    ("dist.sweep_s", "s"),
    ("dist.solo_cpms_s", "s"),
    ("dist.solo_reconstruct_s", "s"),
    ("dist.speedup_vs_solo", "ratio"),
    ("dist.shards", "count"),
    ("dist.retries", "count"),
    ("dist.stage_bytes", "bytes"),
    ("fidelity.pst_gain", "ratio"),
    ("fidelity.pst_jigsaw", "ratio"),
    ("fidelity.pst_global", "ratio"),
    ("trace.job_s.p50", "s"),
    ("trace.overhead_s", "s"),
    ("cores", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (jobs, requests, checks of setup results).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong bytes.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one operation's check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records 0 for metrics of layers this workload does not exercise.
    pub fn unused(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    /// A recorded value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every recorded value.
    #[must_use]
    pub fn values(&self) -> &BTreeMap<&'static str, f64> {
        &self.values
    }

    /// The metrics of `catalogue`, in catalogue order.
    ///
    /// # Errors
    ///
    /// Names the catalogue metrics the run did not record.
    pub fn select(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Result<Vec<Metric>, String> {
        let missing: Vec<&str> = catalogue
            .iter()
            .filter(|(n, _)| !self.values.contains_key(n))
            .map(|(n, _)| *n)
            .collect();
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {}", missing.join(", ")));
        }
        Ok(catalogue
            .iter()
            .map(|&(name, unit)| Metric { name, value: self.values[name], unit })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_reports_missing_metrics() {
        let mut report = Report::default();
        report.set("setup_s", 1.0);
        let err = report.select(END_TO_END).unwrap_err();
        assert!(err.contains("cpu_s_per_job") && !err.contains("setup_s"), "{err}");
        report.unused(&["cpu_s_per_job", "peak_rss_mb"]);
        let metrics = report.select(END_TO_END).unwrap();
        assert_eq!(metrics[0], Metric { name: "setup_s", value: 1.0, unit: "s" });
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut report = Report::default();
        report.check(true, || unreachable!());
        report.check(false, || "bytes differ".into());
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert_eq!(report.failures, ["bytes differ"]);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// The catalogue and `BENCHMARK.json` at the repository root name the
    /// same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            // Outside a full checkout the file is not there to compare.
            return;
        };
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len(), "extra metrics in BENCHMARK.json");
    }
}
