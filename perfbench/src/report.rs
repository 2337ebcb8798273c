//! Metric definitions and the result a run prints.
//!
//! The metric lists here are the single source of the names and units
//! in `BENCHMARK.json` (a test checks that the two agree).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::measure::{json_number, json_string, quantile};
use crate::trace::Tracer;

/// Worker threads of the parallel executor and of the server: the
/// machine the benchmark was defined on has two cores, and the load
/// generator uses no more.
pub const THREADS: usize = 2;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("qps", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("sim_cost_per_query", "cost"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: name and unit. Times are self
/// time per query; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("core.cost.model_us", "us"),
    ("core.optimizer.sja_us", "us"),
    ("core.postopt.us", "us"),
    ("core.optimizer.est_over_actual", "ratio"),
    ("core.optimizer.q_error", "ratio"),
    ("core.analyze.prove_us", "us"),
    ("core.dataflow.stages_us", "us"),
    ("exec.interp.run_us", "us"),
    ("exec.parallel.run_us", "us"),
    ("exec.parallel.stages", "count"),
    ("exec.remote_steps", "count"),
    ("net.exchanges", "count"),
    ("net.bytes", "bytes"),
    ("source.items_per_answer", "rows/item"),
    ("core.phase2.plan_us", "us"),
    ("core.phase2.certify_us", "us"),
    ("exec.phase2.fetch_us", "us"),
    ("exec.phase2.assignments", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.residual_share", "ratio"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("exec.server.serve_us", "us"),
    ("exec.server.shared_per_query", "count"),
    ("exec.server.certify_s", "s"),
    ("exec.server.commuting_pairs", "count"),
    ("trace.overhead_us", "us"),
];

/// Span names and the per-layer time metric each feeds.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("sql.parse", "sql.parse_us"),
    ("core.cost.model", "core.cost.model_us"),
    ("core.optimizer.sja", "core.optimizer.sja_us"),
    ("core.postopt", "core.postopt.us"),
    ("core.analyze.prove", "core.analyze.prove_us"),
    ("core.dataflow.stages", "core.dataflow.stages_us"),
    ("exec.interp.run", "exec.interp.run_us"),
    ("exec.parallel.run", "exec.parallel.run_us"),
    ("core.phase2.plan", "core.phase2.plan_us"),
    ("core.phase2.certify", "core.phase2.certify_us"),
    ("exec.phase2.fetch", "exec.phase2.fetch_us"),
    ("exec.server.serve", "exec.server.serve_us"),
];

/// One completed, checked query of a timed pass.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// From SQL text in to answer out.
    pub latency_s: f64,
    /// Phase-one plus phase-two ledger cost.
    pub sim_cost: f64,
}

/// Wall and CPU time a timed pass spent inside its timed regions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Counts summed over queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    pub queries: f64,
    pub remote_steps: f64,
    pub rows_shipped: f64,
    pub answer_items: f64,
    pub exchanges: f64,
    pub bytes: f64,
    pub stages: f64,
    pub assignments: f64,
}

impl LayerCounts {
    pub fn add(&mut self, o: &LayerCounts) {
        self.queries += o.queries;
        self.remote_steps += o.remote_steps;
        self.rows_shipped += o.rows_shipped;
        self.answer_items += o.answer_items;
        self.exchanges += o.exchanges;
        self.bytes += o.bytes;
        self.stages += o.stages;
        self.assignments += o.assignments;
    }

    /// Per-query averages (and rows shipped per answer item).
    fn per_query(&self) -> [(&'static str, f64); 6] {
        let n = self.queries.max(1.0);
        [
            ("exec.remote_steps", self.remote_steps / n),
            ("net.exchanges", self.exchanges / n),
            ("net.bytes", self.bytes / n),
            (
                "source.items_per_answer",
                self.rows_shipped / self.answer_items.max(1.0),
            ),
            ("exec.parallel.stages", self.stages / n),
            ("exec.phase2.assignments", self.assignments / n),
        ]
    }
}

/// The deterministic half of a run: identical for every run of the
/// same workload, seed and program.
#[derive(Debug, Clone, Default)]
pub struct Fingerprint {
    pub queries: usize,
    /// Hash of the plan listings, answers and phase-two records (the
    /// server: of the answers only).
    pub hash: String,
    /// Absent where thread interleaving decides costs (the server).
    pub sim_cost_per_query: Option<f64>,
    pub counts: Option<LayerCounts>,
}

impl Fingerprint {
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"queries\": {}, \"hash\": {}",
            json_string(workload),
            self.queries,
            json_string(&self.hash),
        );
        if let Some(c) = self.sim_cost_per_query {
            write!(out, ", \"sim_cost_per_query\": {}", json_number(c)).expect("write");
        }
        for (name, v) in self.counts.iter().flat_map(LayerCounts::per_query) {
            write!(out, ", {}: {}", json_string(name), json_number(v)).expect("write");
        }
        out.push('}');
        out
    }
}

/// Everything one run prints.
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<&'static str, f64>,
    pub fingerprint: Fingerprint,
    pub spans: Option<String>,
}

impl RunReport {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> RunReport {
        RunReport {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            fingerprint: Fingerprint::default(),
            spans: None,
        }
    }

    /// Fills the end-to-end metrics from a timed pass.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        samples: &[Sample],
        busy: Busy,
        sim_cost_per_query: f64,
        peak_rss_mb: f64,
    ) {
        assert!(!samples.is_empty(), "no query completed");
        let mut lat: Vec<f64> = samples.iter().map(|s| s.latency_s * 1e3).collect();
        lat.sort_by(f64::total_cmp);
        let n = samples.len() as f64;
        self.metrics.insert("setup_s", setup_s);
        self.metrics.insert("latency_p50_ms", quantile(&lat, 0.5));
        self.metrics.insert("latency_p90_ms", quantile(&lat, 0.9));
        self.metrics.insert("qps", n / busy.wall_s);
        self.metrics
            .insert("cpu_ms_per_query", busy.cpu_s * 1e3 / n);
        self.metrics
            .insert("sim_cost_per_query", sim_cost_per_query);
        self.metrics.insert("peak_rss_mb", peak_rss_mb);
    }

    /// Fills the per-layer metrics of a traced pass: self time per
    /// query of each layer's spans and the layer counts. `estimates`
    /// holds the geometric means of estimated over executed cost and of
    /// its q-error. `overhead_us` is the traced minus the untraced wall
    /// time per query over the same queries.
    pub fn per_layer(
        &mut self,
        tr: &Tracer,
        counts: &LayerCounts,
        estimates: Option<(f64, f64)>,
        overhead_us: f64,
    ) {
        let n = counts.queries.max(1.0);
        let layers = tr.layer_totals();
        for (span, metric) in SPAN_METRICS {
            let self_us = layers.get(span).map_or(0.0, |t| t.self_ns as f64 / 1e3);
            self.metrics.insert(metric, self_us / n);
        }
        for (name, v) in counts.per_query() {
            self.metrics.insert(name, v);
        }
        if let Some((ratio, q_error)) = estimates {
            self.metrics.insert("core.optimizer.est_over_actual", ratio);
            self.metrics.insert("core.optimizer.q_error", q_error);
        }
        self.metrics.insert("trace.overhead_us", overhead_us);
    }

    /// The metric list this run reports: end-to-end untraced, per-layer
    /// traced. Layers the workload never reaches read 0.
    fn reported(&self) -> Vec<(&'static str, f64, &'static str)> {
        let list = if self.traced { PER_LAYER } else { END_TO_END };
        list.iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied();
                assert!(
                    self.traced || v.is_some(),
                    "end-to-end metric {name} was not measured"
                );
                (*name, v.unwrap_or(0.0), *unit)
            })
            .collect()
    }

    /// Prints the human-readable summary and, as the last line, the
    /// JSON result. Writes the fingerprint (and the spans, when traced)
    /// under `.bench_out/`.
    pub fn print(&self) -> std::io::Result<()> {
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "{}-seed{}{}",
            self.workload,
            self.seed,
            if self.traced { "-traced" } else { "" }
        );
        let fp = self.fingerprint.to_json(self.workload, self.seed);
        std::fs::write(
            dir.join(format!("{stem}.fingerprint.json")),
            format!("{fp}\n"),
        )?;
        if let Some(spans) = &self.spans {
            std::fs::write(dir.join(format!("{stem}.spans.json")), spans)?;
        }
        let metrics = self.reported();
        println!(
            "# {} seed={} trace={} threads={} attempted={} failed={} error_rate={}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            THREADS,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, v, unit) in &metrics {
            println!("{name:<32} {v:>16.4} {unit}");
        }
        println!("fingerprint {fp}");
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, v, unit)) in metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            write!(
                json,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*v),
                json_string(unit)
            )
            .expect("write to string");
        }
        json.push_str("}}");
        println!("{json}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = compact.matches("\"name\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + 2,
            "2 workloads: bulk_fetch and server_zipf"
        );
    }
}
