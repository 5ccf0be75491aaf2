//! [`MetricsSnapshot`]: a point-in-time, schema-free metrics exposition.
//!
//! The DSM fills one of these from its lock-free counters (coherence
//! stats, network stats, site histograms, recorder drop counters) at any
//! moment mid-run — every source is relaxed-atomic, so
//! snapshotting never blocks a protocol thread — and the snapshot renders
//! itself two ways: Prometheus text exposition format (for scraping) and
//! the in-tree JSON (for programmatic polling). Units follow the
//! observability clock: virtual cycles under the simulator, wall
//! nanoseconds under the native transport.

use crate::hist::HistogramSnapshot;
use crate::json::escape;

#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    /// count/mean plus the standard tail quantiles, from a
    /// [`HistogramSnapshot`].
    Summary {
        count: u64,
        mean: f64,
        p50: u64,
        p90: u64,
        p99: u64,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Prometheus-style metric name (`argo_` prefix by convention).
    pub name: String,
    /// Label pairs, already in render order.
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

/// An append-only bag of metrics with deterministic render order (the
/// order the producer added them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.push(name, labels, MetricValue::Counter(value));
    }

    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.push(name, labels, MetricValue::Gauge(value));
    }

    pub fn summary(&mut self, name: &str, labels: &[(&str, &str)], h: &HistogramSnapshot) {
        self.push(
            name,
            labels,
            MetricValue::Summary {
                count: h.count(),
                mean: h.mean(),
                p50: h.percentile(50.0),
                p90: h.percentile(90.0),
                p99: h.percentile(99.0),
            },
        );
    }

    fn push(&mut self, name: &str, labels: &[(&str, &str)], value: MetricValue) {
        self.metrics.push(Metric {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
    }

    fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
        let mut parts: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{v}\""));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }

    /// Prometheus text exposition format, version 0.0.4. Summaries render
    /// as the conventional `_count`/`_mean` companions plus `quantile`
    /// series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(self.metrics.len() * 64);
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        m.name,
                        Self::label_block(&m.labels, None)
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        m.name,
                        Self::label_block(&m.labels, None)
                    ));
                }
                MetricValue::Summary { count, mean, p50, p90, p99 } => {
                    let base = &m.name;
                    out.push_str(&format!(
                        "{base}_count{} {count}\n",
                        Self::label_block(&m.labels, None)
                    ));
                    out.push_str(&format!(
                        "{base}_mean{} {mean}\n",
                        Self::label_block(&m.labels, None)
                    ));
                    for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99)] {
                        out.push_str(&format!(
                            "{base}{} {v}\n",
                            Self::label_block(&m.labels, Some(("quantile", q)))
                        ));
                    }
                }
            }
        }
        out
    }

    /// JSON rendering: an array of `{name, labels, ...value}` objects that
    /// [`crate::json::JsonValue::parse`] round-trips.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":\"");
            out.push_str(&escape(&m.name));
            out.push_str("\",\"labels\":{");
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
            }
            out.push_str("},");
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Summary { count, mean, p50, p90, p99 } => {
                    out.push_str(&format!(
                        "\"type\":\"summary\",\"count\":{count},\"mean\":{mean},\
                         \"p50\":{p50},\"p90\":{p90},\"p99\":{p99}}}"
                    ));
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::json::JsonValue;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.counter("argo_read_misses_total", &[("node", "0")], 42);
        s.gauge("argo_recorder_enabled", &[], 1.0);
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        s.summary("argo_site_latency", &[("site", "read_miss")], &h.snapshot());
        s
    }

    #[test]
    fn prometheus_text_has_all_series() {
        let text = sample().to_prometheus();
        assert!(text.contains("argo_read_misses_total{node=\"0\"} 42"));
        assert!(text.contains("argo_recorder_enabled 1"));
        assert!(text.contains("argo_site_latency_count{site=\"read_miss\"} 5"));
        assert!(text.contains("quantile=\"0.99\""));
        // Every line is `name{labels} value` — no blank or malformed rows.
        for line in text.lines() {
            assert!(line.split_whitespace().count() == 2, "bad line: {line}");
        }
    }

    #[test]
    fn json_round_trips() {
        let s = sample();
        let v = JsonValue::parse(&s.to_json()).expect("valid JSON");
        let arr = v.get("metrics").and_then(|m| m.as_arr()).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(
            arr[0].get("name").and_then(|n| n.as_str()),
            Some("argo_read_misses_total")
        );
        assert_eq!(arr[0].get("value").and_then(|n| n.as_u64()), Some(42));
        assert_eq!(arr[2].get("type").and_then(|n| n.as_str()), Some("summary"));
        assert_eq!(arr[2].get("count").and_then(|n| n.as_u64()), Some(5));
    }
}
