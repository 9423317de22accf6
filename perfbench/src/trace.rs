//! The traced run: collector installation and per-layer attribution.
//!
//! Spans carry no parent ids, so nesting is rebuilt per thread from the
//! intervals: a span's parent is the innermost earlier span on the same
//! thread that still encloses it. A span's *self time* is its duration
//! minus its direct children's. Each span name maps to the crate (layer)
//! that owns the call: the benchmark names its own call spans after the
//! layer (`neural.train`, `ms-sim.characterize`, ...), and the crates'
//! internal spans are mapped by prefix (`train.*` → `neural`,
//! `ms.*` → `ms-sim`, ...). `workload.*` and `stage.*` spans are the
//! benchmark's own glue (`bench`).

use std::collections::BTreeMap;

use obs::{Collector, EventKind};

/// Journal capacity of the traced run: large enough that a traced
/// serving phase at full load is not overwritten.
pub const JOURNAL_CAPACITY: usize = 1 << 19;

/// Layers reported as `share.<layer>`.
pub const LAYERS: [&str; 7] = [
    "ms-sim",
    "nmr-sim",
    "chemometrics",
    "neural",
    "datastore",
    "serve",
    "bench",
];

/// Runs `f` under a fresh collector and attributes what it recorded.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Attribution) {
    let guard = obs::install(Collector::new().with_journal_capacity(JOURNAL_CAPACITY));
    let out = f();
    let attribution = attribute(guard.collector());
    (out, attribution)
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &'static str {
    let prefix = name.split('.').next().unwrap_or("");
    match prefix {
        "ms-sim" | "ms" => "ms-sim",
        "nmr-sim" | "nmr" => "nmr-sim",
        "chemometrics" | "ihm" => "chemometrics",
        "neural" | "train" => "neural",
        "datastore" | "store" => "datastore",
        "serve" => "serve",
        "workload" | "stage" | "bench" => "bench",
        _ => "other",
    }
}

/// Per-layer attribution of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Self seconds per layer.
    pub layer_self_s: BTreeMap<String, f64>,
    /// Self seconds per span name.
    pub span_self_s: BTreeMap<String, f64>,
    /// Total (inclusive) seconds per span name.
    pub span_total_s: BTreeMap<String, f64>,
    /// Spans seen.
    pub spans: usize,
    /// Records lost to the bounded journal (overwritten or dropped).
    pub journal_drops: u64,
    /// Largest value each gauge was set to.
    pub gauge_max: BTreeMap<String, f64>,
}

impl Attribution {
    /// Adds `other`'s spans (another traced pass) to this attribution.
    pub fn merge(&mut self, other: Attribution) {
        for (target, source) in [
            (&mut self.layer_self_s, other.layer_self_s),
            (&mut self.span_self_s, other.span_self_s),
            (&mut self.span_total_s, other.span_total_s),
        ] {
            for (name, s) in source {
                *target.entry(name).or_default() += s;
            }
        }
        self.spans += other.spans;
        self.journal_drops += other.journal_drops;
        for (name, v) in other.gauge_max {
            let max = self.gauge_max.entry(name).or_insert(v);
            *max = max.max(v);
        }
    }

    /// The largest value gauge `name` was set to (0 when never set).
    pub fn gauge_max(&self, name: &str) -> f64 {
        self.gauge_max.get(name).copied().unwrap_or(0.0)
    }

    /// Self time over all layers.
    pub fn total_self_s(&self) -> f64 {
        self.layer_self_s.values().sum()
    }

    /// `layer`'s share of all self time (0 when nothing was traced).
    pub fn share(&self, layer: &str) -> f64 {
        let total = self.total_self_s();
        if total > 0.0 {
            self.layer_self_s.get(layer).copied().unwrap_or(0.0) / total
        } else {
            0.0
        }
    }

    /// Inclusive seconds of every span whose name starts with `prefix`.
    pub fn total_with_prefix(&self, prefix: &str) -> f64 {
        self.span_total_s
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s)
            .sum()
    }

    /// Records the shares as `share.<layer>` metrics and the per-span
    /// self times as a detail.
    pub fn record(&self, report: &mut crate::report::Report) {
        for layer in LAYERS {
            report.metric(format!("share.{layer}"), self.share(layer), "fraction");
        }
        report.metric("trace.journal_drops", self.journal_drops as f64, "count");
        let layers: BTreeMap<String, f64> = self.layer_self_s.clone();
        report.detail(
            "trace",
            serde_json::json!({
                "spans": self.spans,
                "layer_self_s": layers,
                "span_self_s": self.span_self_s,
                "span_total_s": self.span_total_s,
            }),
        );
    }
}

/// Largest share of a traced paper pass that may fall outside its stage
/// spans.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Records the traced-run metrics of a paper workload: layer shares,
/// journal drops, the stage-span reconciliation against the passes' wall
/// time (a failing check beyond [`RECONCILE_TOLERANCE`]), the tracing
/// overhead (traced over untraced `paper_s`) and the FMA peak.
pub fn record_paper(
    report: &mut crate::report::Report,
    attribution: &Attribution,
    stage_sum_s: f64,
    wall_s: f64,
    untraced_paper_s: f64,
    traced_paper_s: f64,
) {
    attribution.record(report);
    let reconcile_err = (stage_sum_s - wall_s).abs() / wall_s;
    report.metric("trace.reconcile_err", reconcile_err, "fraction");
    report.check(
        "stage spans reconcile with paper_s",
        reconcile_err <= RECONCILE_TOLERANCE,
        format!("stages {stage_sum_s:.4}s vs passes {wall_s:.4}s"),
    );
    report.metric(
        "trace.overhead",
        traced_paper_s / untraced_paper_s - 1.0,
        "fraction",
    );
    report.metric("trace.overhead_s", traced_paper_s - untraced_paper_s, "s");
    report.metric(
        "host.fma_peak_gmacs",
        crate::roofline::fma_peak_gmacs(5),
        "GMAC/s",
    );
}

/// Attributes every span in `collector`'s journal.
pub fn attribute(collector: &Collector) -> Attribution {
    let mut by_thread: BTreeMap<u32, Vec<(u64, u64, String)>> = BTreeMap::new();
    let mut gauge_max: BTreeMap<String, f64> = BTreeMap::new();
    for event in collector.events() {
        match event.kind {
            EventKind::Span => by_thread.entry(event.thread).or_default().push((
                event.start_ns,
                event.end_ns,
                event.name,
            )),
            EventKind::Gauge => {
                let max = gauge_max.entry(event.name).or_insert(event.value);
                *max = max.max(event.value);
            }
        }
    }
    let mut out = Attribution {
        gauge_max,
        journal_drops: collector.journal_dropped()
            + collector
                .journal_recorded()
                .saturating_sub(JOURNAL_CAPACITY as u64),
        ..Attribution::default()
    };
    for spans in by_thread.values_mut() {
        // Parents first: earlier start, then longer span.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut self_ns: Vec<i128> = spans.iter().map(|(s, e, _)| i128::from(e - s)).collect();
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            let (start, end, _) = spans[i];
            while let Some(&top) = stack.last() {
                let encloses = spans[top].0 <= start && end <= spans[top].1;
                if encloses {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                self_ns[parent] -= i128::from(end - start);
            }
            stack.push(i);
        }
        for ((start, end, name), own) in spans.iter().zip(&self_ns) {
            let own_s = (*own).max(0) as f64 * 1e-9;
            *out.layer_self_s
                .entry(layer_of(name).to_string())
                .or_default() += own_s;
            *out.span_self_s.entry(name.clone()).or_default() += own_s;
            *out.span_total_s.entry(name.clone()).or_default() += (end - start) as f64 * 1e-9;
            out.spans += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let clock = Arc::new(obs::ManualClock::new(0));
        let guard = obs::install(Collector::with_clock(clock.clone() as Arc<dyn obs::Clock>));
        {
            let _w = obs::span("workload.x");
            clock.advance(10);
            {
                let _s = obs::span("stage.x.train");
                clock.advance(5);
                {
                    let _c = obs::span("neural.train");
                    clock.advance(20);
                    {
                        let _e = obs::span("train.epoch");
                        clock.advance(60);
                    }
                }
            }
            clock.advance(5);
        }
        let a = attribute(guard.collector());
        drop(guard);
        assert_eq!(a.spans, 4);
        let ns = |name: &str| (a.span_self_s[name] * 1e9).round() as i64;
        assert_eq!(ns("workload.x"), 15);
        assert_eq!(ns("stage.x.train"), 5);
        assert_eq!(ns("neural.train"), 20);
        assert_eq!(ns("train.epoch"), 60);
        assert!((a.share("neural") - 0.8).abs() < 1e-9);
        assert!((a.share("bench") - 0.2).abs() < 1e-9);
        assert!((a.total_with_prefix("stage.x.") * 1e9 - 85.0).abs() < 1e-6);
    }

    #[test]
    fn gauge_max_is_the_largest_value_set() {
        let guard = obs::install(Collector::new());
        for depth in [3.0, 7.0, 2.0] {
            obs::gauge_set("serve.queue_depth", depth);
        }
        let mut a = attribute(guard.collector());
        drop(guard);
        assert_eq!(a.gauge_max("serve.queue_depth"), 7.0);
        assert_eq!(a.gauge_max("never.set"), 0.0);
        a.merge(Attribution {
            gauge_max: [("serve.queue_depth".to_string(), 9.0)].into(),
            ..Attribution::default()
        });
        assert_eq!(a.gauge_max("serve.queue_depth"), 9.0);
    }

    #[test]
    fn internal_span_names_map_to_their_crates() {
        assert_eq!(layer_of("ms.generate_dataset"), "ms-sim");
        assert_eq!(layer_of("nmr.acquire"), "nmr-sim");
        assert_eq!(layer_of("train.batch"), "neural");
        assert_eq!(layer_of("store.save"), "datastore");
        assert_eq!(layer_of("serve.batch"), "serve");
        assert_eq!(layer_of("stage.ms-paper.train"), "bench");
    }
}
