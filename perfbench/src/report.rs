//! What one run found: the metrics, the failures, and the notes that
//! print each timing with its sample count.

use std::collections::BTreeMap;

use lily_core::json::JsonObject;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order. Every
/// workload reports each of them on an untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("cells", "count"),
    ("area_mm2", "mm2"),
    ("wire_mm", "mm"),
    ("critical_delay_ns", "ns"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order, printed
/// by a traced run. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("slo_rps", "1/s"),
    ("lily_chip_ratio", "ratio"),
    ("lily_wire_ratio", "ratio"),
    ("lily_delay_ratio", "ratio"),
    ("degradations", "count"),
    ("count.jobs", "count"),
    ("stage.decompose_s", "s"),
    ("count.subject_nodes", "count"),
    ("stage.assign_pads_s", "s"),
    ("stage.subject_place_s", "s"),
    ("kernel.multilevel_s", "s"),
    ("kernel.cg_s", "s"),
    ("stage.map_s", "s"),
    ("kernel.cut_enum_s", "s"),
    ("kernel.cut_match_s", "s"),
    ("count.cuts_kept", "count"),
    ("count.cuts_dominated", "count"),
    ("ratio.cuts_kept", "ratio"),
    ("kernel.match_build_s", "s"),
    ("count.matches", "count"),
    ("kernel.cover_s", "s"),
    ("stage.legalize_s", "s"),
    ("stage.detailed_place_s", "s"),
    ("stage.route_estimate_s", "s"),
    ("kernel.rsmt_s", "s"),
    ("count.nets", "count"),
    ("stage.sta_s", "s"),
    ("mem.estimate_ratio", "ratio"),
    ("trace.attributed_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("serve.admit_p50_s", "s"),
    ("serve.queue_p50_s", "s"),
    ("serve.service_p50_s", "s"),
    ("serve.max_queue_wait_s", "s"),
    ("serve.journal_bytes", "bytes"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("serve.completed", "count"),
    ("loadgen.late_p90_s", "s"),
    ("loadgen.backlog", "count"),
    ("loadgen.sent", "count"),
    ("serve.stage_total_s", "s"),
];

/// The accumulating result of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: usize,
    failures: Vec<String>,
    end_to_end: BTreeMap<String, f64>,
    layer: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Adds `n` operations to the attempted count.
    pub fn attempted(&mut self, n: usize) {
        self.attempted += n;
    }

    /// Records a failure (an incorrect output or a failed operation).
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Adds a human-readable line (printed before the result line).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets an end-to-end metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.end_to_end.insert(name.to_string(), value);
    }

    /// Sets a per-layer metric.
    pub fn set_layer(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }

    /// Prints the notes and failures, then the result line: every
    /// end-to-end metric (`trace == false`) or every per-layer metric.
    /// A missing end-to-end metric is itself a failure.
    pub fn finish(mut self, trace: bool) -> (String, bool) {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        if !trace {
            for (name, _) in END_TO_END {
                if !self.end_to_end.contains_key(name) {
                    self.failures.push(format!("end-to-end metric `{name}` was not measured"));
                }
            }
        }
        for f in &self.failures {
            out.push_str(&format!("# FAILED: {f}\n"));
        }
        let (list, values): (&[(&str, &str)], _) =
            if trace { (&PER_LAYER[..], &self.layer) } else { (&END_TO_END[..], &self.end_to_end) };
        let mut metrics = JsonObject::new();
        for &(name, unit) in list {
            let value = values.get(name).copied().unwrap_or(0.0);
            metrics = metrics
                .raw(name, &JsonObject::new().float("value", value).string("unit", unit).finish());
        }
        let attempted = self.attempted.max(1);
        let failed = self.failures.len().min(attempted);
        let correct = self.failures.is_empty();
        let line = JsonObject::new()
            .raw("correct", if correct { "true" } else { "false" })
            .uint("attempted", attempted as u64)
            .uint("failed", failed as u64)
            .raw("metrics", &metrics.finish())
            .finish();
        out.push_str(&line);
        out.push('\n');
        (out, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = lily_core::json::Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let got: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s =
                        |k| m.get(k).and_then(|v| v.as_str()).expect("name and unit").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> =
                list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(got, want, "{key}");
        }
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.attempted(1);
        r.set("wall_s", 1.0);
        let (out, ok) = r.finish(false);
        assert!(!ok);
        let last = out.lines().last().expect("result line");
        assert!(last.starts_with("{\"correct\":false,\"attempted\":1,\"failed\":1,"), "{last}");
    }
}
