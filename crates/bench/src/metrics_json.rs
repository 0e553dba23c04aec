//! JSON rendering of an [`ocep_core::MetricsSnapshot`] through the
//! std-only [`Json`] serializer — the second exporter
//! next to the Prometheus text format
//! ([`MetricsSnapshot::to_prometheus`]).

use crate::json::Json;
use ocep_core::{Histogram, MetricKind, MetricValue, MetricsSnapshot};

fn hist_json(h: &Histogram) -> Json {
    let buckets = h
        .bucket_counts()
        .iter()
        .enumerate()
        .filter(|(_, c)| **c != 0)
        .map(|(i, c)| {
            let le = if Histogram::upper_edge(i) == u64::MAX {
                Json::from("+Inf")
            } else {
                Json::from(Histogram::upper_edge(i))
            };
            Json::obj([("le", le), ("count", Json::from(*c))])
        });
    Json::obj([
        ("count", Json::from(h.count())),
        ("sum", Json::from(h.sum())),
        ("max", Json::from(h.max())),
        ("buckets", Json::arr(buckets)),
    ])
}

/// Renders a metrics snapshot as a JSON document: a `families` array in
/// catalog order (each with `name`, `help`, `kind`, and per-label-set
/// `samples`) plus the `recent` arrival ring. Histogram buckets carry
/// per-bucket (non-cumulative) counts with their exclusive upper edge;
/// empty buckets are elided.
#[must_use]
pub fn snapshot_to_json(s: &MetricsSnapshot) -> Json {
    let families = s.families.iter().map(|fam| {
        let samples = fam.samples.iter().map(|sample| {
            let labels = Json::obj(
                sample
                    .labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(v.clone()))),
            );
            let value = match &sample.value {
                MetricValue::Int(v) => Json::from(*v),
                MetricValue::Hist(h) => hist_json(h),
            };
            Json::obj([("labels", labels), ("value", value)])
        });
        Json::obj([
            ("name", Json::from(fam.name.clone())),
            ("help", Json::from(fam.help.clone())),
            (
                "kind",
                Json::from(match fam.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                    MetricKind::Histogram => "histogram",
                }),
            ),
            ("samples", Json::arr(samples)),
        ])
    });
    let recent = s.recent.iter().map(|r| {
        Json::obj([
            ("seq", Json::from(r.seq)),
            ("event", Json::from(r.event.clone())),
            ("stored", Json::from(r.stored)),
            ("searches", Json::from(r.searches)),
            ("matches_found", Json::from(r.matches_found)),
            ("matches_reported", Json::from(r.matches_reported)),
            ("nodes", Json::from(r.nodes)),
            ("total_ns", Json::from(r.total_ns)),
        ])
    });
    Json::obj([
        ("families", Json::arr(families)),
        ("recent", Json::arr(recent)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_counters_and_histograms() {
        let mut s = MetricsSnapshot::default();
        s.counter("ocep_events_total", "Events observed.", 7);
        let mut h = Histogram::new();
        h.record(0);
        h.record(3);
        h.record(3);
        s.histogram_with(
            "ocep_stage_ns",
            "Stage latency.",
            &[("stage", "search")],
            &h,
        );
        let doc = snapshot_to_json(&s).to_string();
        assert!(doc.contains(r#""name":"ocep_events_total""#), "{doc}");
        assert!(doc.contains(r#""value":7"#), "{doc}");
        assert!(doc.contains(r#""stage":"search""#), "{doc}");
        assert!(doc.contains(r#""count":3,"sum":6,"max":3"#), "{doc}");
        // Bucket for value 3 is [2,4) → le 4, two samples; zeros bucket le 1.
        assert!(doc.contains(r#"{"le":1,"count":1}"#), "{doc}");
        assert!(doc.contains(r#"{"le":4,"count":2}"#), "{doc}");
    }
}
