//! Named metrics, output checks and the result line.
//!
//! Every workload fills one [`Report`]. Its metrics carry the names the
//! benchmark's documentation uses (`paper_s`, `sim_mae`,
//! `serve.inside_p50_ms.ms`, ...) with their units; the machine-readable
//! result line selects the [`END_TO_END`] or [`PER_LAYER`] catalogue
//! from it. Both catalogues are shared by all workloads — `BENCHMARK.json`
//! lists them once — so each workload reports every entry. End-to-end
//! metrics have a workload-specific meaning (documented in
//! `WORKLOADS.md`); per-layer metrics — shares, raw times, rates and
//! counts — read `0` in a workload that does not exercise the layer.

use std::collections::BTreeMap;

use serde_json::Value;

/// The gated end-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("e2e_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// The per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Attribution from the traced pass (all workloads).
    ("share.ms-sim", "fraction"),
    ("share.nmr-sim", "fraction"),
    ("share.chemometrics", "fraction"),
    ("share.neural", "fraction"),
    ("share.datastore", "fraction"),
    ("share.serve", "fraction"),
    ("share.bench", "fraction"),
    ("trace.overhead", "fraction"),
    ("trace.overhead_s", "s"),
    ("trace.reconcile_err", "fraction"),
    ("trace.journal_drops", "count"),
    ("host.fma_peak_gmacs", "GMAC/s"),
    // Paper path.
    ("ms-sim.campaign_spectra_per_s", "1/s"),
    ("ms-sim.campaign_s", "s"),
    ("ms-sim.characterize_share", "fraction"),
    ("ms-sim.characterize_s", "s"),
    ("ms-sim.simulate_spectra_per_s", "1/s"),
    ("nmr-sim.acquire_spectra_per_s", "1/s"),
    ("nmr-sim.acquire_s", "s"),
    ("nmr-sim.augment_spectra_per_s", "1/s"),
    ("nmr-sim.augment_share", "fraction"),
    ("neural.train_share", "fraction"),
    ("neural.train_s", "s"),
    ("neural.train_samples_per_s", "1/s"),
    ("neural.train_samples", "count"),
    ("neural.validate_share", "fraction"),
    ("neural.validate_pass_s", "s"),
    ("neural.predict_per_s", "1/s"),
    ("chemometrics.ihm_share", "fraction"),
    ("chemometrics.ihm_ms_per_spectrum", "ms"),
    ("chemometrics.ihm_spectra_per_s", "1/s"),
    ("chemometrics.lm_iterations", "count"),
    // Serving path.
    ("datastore.roundtrip_share", "fraction"),
    ("datastore.roundtrip_s", "s"),
    ("serve.registry_load_share", "fraction"),
    ("serve.registry_load_s", "s"),
    ("serve.start_share", "fraction"),
    ("serve.start_s", "s"),
    ("serve.warmup_share", "fraction"),
    ("serve.warmup_s", "s"),
    ("serve.submit_share", "fraction"),
    ("serve.submit_us_p50", "us"),
    ("serve.inside_share.ms", "fraction"),
    ("serve.inside_share.nmr", "fraction"),
    ("serve.inside_p50_ms.ms", "ms"),
    ("serve.inside_p50_ms.nmr", "ms"),
    ("bench.late_p99_share", "fraction"),
    ("bench.late_p99_ms", "ms"),
    ("serve.batch_mean.ms.open", "requests"),
    ("serve.batch_mean.nmr.open", "requests"),
    ("serve.batch_mean.ms.closed", "requests"),
    ("serve.batch_mean.nmr.closed", "requests"),
    ("serve.batches.open", "count"),
    ("serve.batches.closed", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.p99_over_p50", "ratio"),
    ("serve.p99_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("serve.failed", "count"),
    ("neural.kernel_busy", "fraction"),
    ("neural.kernel_us.ms", "us"),
    ("neural.kernel_us.nmr", "us"),
    ("neural.kernel_gmacs.ms", "GMAC/s"),
    ("neural.kernel_gmacs.nmr", "GMAC/s"),
    ("neural.kernel_peak_frac.ms", "fraction"),
    ("neural.kernel_peak_frac.nmr", "fraction"),
    ("neural.macs_per_request.ms", "count"),
    ("neural.macs_per_request.nmr", "count"),
];

/// One measured value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit (`s`, `ms`, `fraction`, `count`, ...).
    pub unit: &'static str,
}

/// One output check and its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Observed values behind the verdict.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (paper steps or serving requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks in the order they ran.
    pub checks: Vec<Check>,
    /// Every named metric.
    pub metrics: BTreeMap<String, Metric>,
    /// Structured extras: sizes, per-op roofline, per-span self times.
    pub details: BTreeMap<String, Value>,
}

impl Report {
    /// Records metric `name`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), Metric { value, unit });
    }

    /// Value of metric `name`, if recorded.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    /// Records a structured detail.
    pub fn detail(&mut self, key: impl Into<String>, value: Value) {
        self.details.insert(key.into(), value);
    }

    /// `true` when every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The result line's metric object: every entry of the selected
    /// catalogue. A missing end-to-end metric fails the run (it is
    /// recorded as a failed check); a missing per-layer metric is a layer
    /// this workload does not exercise and reads `0`.
    pub fn catalogue_metrics(&mut self, traced: bool) -> Value {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = BTreeMap::new();
        for &(name, unit) in catalogue {
            let value = match self.value(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => {
                    self.check(format!("metric {name} measured"), false, "missing");
                    f64::NAN
                }
            };
            let finite = value.is_finite();
            if !finite {
                self.check(format!("metric {name} finite"), false, format!("{value}"));
            }
            out.insert(
                name.to_string(),
                serde_json::json!({"value": if finite { value } else { 0.0 }, "unit": unit}),
            );
        }
        Value::Object(out)
    }

    /// Human-readable lines: every metric by name with its unit, then
    /// the checks.
    pub fn lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| format!("  {name:<34} {:>16} {}", format_value(m.value), m.unit))
            .collect();
        for check in &self.checks {
            lines.push(format!(
                "  check {:<4} {} ({})",
                if check.passed { "ok" } else { "FAIL" },
                check.name,
                check.detail
            ));
        }
        lines
    }

    /// The full report as JSON (written to the output directory).
    pub fn to_json(&self) -> Value {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    serde_json::json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect();
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|c| serde_json::json!({"name": c.name, "passed": c.passed, "detail": c.detail}))
            .collect();
        serde_json::json!({
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.correct(),
            "metrics": metrics,
            "checks": checks,
            "details": self.details,
        })
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e7) {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut report = Report::default();
        report.metric("setup_s", 1.0, "s");
        let _ = report.catalogue_metrics(false);
        assert!(!report.correct());
        let mut traced = Report::default();
        let metrics = traced.catalogue_metrics(true);
        assert!(traced.correct());
        assert_eq!(metrics.as_object().map(|m| m.len()), Some(PER_LAYER.len()));
    }
}
