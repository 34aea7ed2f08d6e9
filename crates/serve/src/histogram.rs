//! Per-op-class latency histograms for the service layer.
//!
//! The histogram itself is [`mve_obs::metrics::Histogram`];
//! [`HistogramStats`] is its JSON view in the `stats` reply, and
//! [`LatencyMetrics`] groups two histograms (service time and queue wait)
//! per op class.

use std::time::Duration;

use mve_obs::metrics::{Histogram, Log2Histogram};

use crate::json::Json;

/// One histogram snapshot: sample count, mean, p50/p90/p99, max, all µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramStats {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean, µs.
    pub mean_us: f64,
    /// Median, µs (bucket-resolution).
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Exact maximum, µs.
    pub max_us: u64,
}

impl HistogramStats {
    /// Count, mean, percentiles and max of a snapshot.
    pub fn of(snap: &Log2Histogram) -> HistogramStats {
        // Concurrent recorders can make `count` and the bucket sum differ
        // transiently; rank against the bucket sum the quantiles walk.
        let count: u64 = snap.counts.iter().sum();
        HistogramStats {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                snap.sum as f64 / count as f64
            },
            p50_us: snap.quantile(0.50),
            p90_us: snap.quantile(0.90),
            p99_us: snap.quantile(0.99),
            max_us: snap.max,
        }
    }

    /// Serialize for the `stats` reply.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::U64(self.count)),
            ("mean_us".into(), Json::F64(self.mean_us)),
            ("p50_us".into(), Json::U64(self.p50_us)),
            ("p90_us".into(), Json::U64(self.p90_us)),
            ("p99_us".into(), Json::U64(self.p99_us)),
            ("max_us".into(), Json::U64(self.max_us)),
        ])
    }
}

/// The op classes latency is tracked for: the three chargeable classes
/// plus the two inline control-plane ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Registry artefact render.
    Artefact,
    /// Kernel execution + timing walk(s).
    Sim,
    /// DSL compile + execution + timing walk.
    Compile,
    /// Cost estimate (served inline by the event loop).
    Estimate,
    /// Stats snapshot (served inline by the event loop).
    Stats,
    /// Prometheus exposition render (served inline by the event loop).
    Metrics,
    /// Request-trace ring snapshot (served inline by the event loop).
    Trace,
    /// DSL compile + marked execution + per-line attribution.
    /// Appended after the original seven: `ALL`'s order is the
    /// serialization order CI and the stats members pin.
    Profile,
}

impl MetricClass {
    /// Every class, in the order they serialize.
    pub const ALL: [MetricClass; 8] = [
        MetricClass::Artefact,
        MetricClass::Sim,
        MetricClass::Compile,
        MetricClass::Estimate,
        MetricClass::Stats,
        MetricClass::Metrics,
        MetricClass::Trace,
        MetricClass::Profile,
    ];

    /// Wire name of the class.
    pub fn name(self) -> &'static str {
        match self {
            MetricClass::Artefact => "artefact",
            MetricClass::Sim => "sim",
            MetricClass::Compile => "compile",
            MetricClass::Estimate => "estimate",
            MetricClass::Stats => "stats",
            MetricClass::Metrics => "metrics",
            MetricClass::Trace => "trace",
            MetricClass::Profile => "profile",
        }
    }

    fn idx(self) -> usize {
        match self {
            MetricClass::Artefact => 0,
            MetricClass::Sim => 1,
            MetricClass::Compile => 2,
            MetricClass::Estimate => 3,
            MetricClass::Stats => 4,
            MetricClass::Metrics => 5,
            MetricClass::Trace => 6,
            MetricClass::Profile => 7,
        }
    }
}

impl From<crate::cost::OpClass> for MetricClass {
    fn from(class: crate::cost::OpClass) -> MetricClass {
        match class {
            crate::cost::OpClass::Artefact => MetricClass::Artefact,
            crate::cost::OpClass::Sim => MetricClass::Sim,
            crate::cost::OpClass::Compile => MetricClass::Compile,
            crate::cost::OpClass::Profile => MetricClass::Profile,
        }
    }
}

#[derive(Debug, Default)]
struct ClassLatency {
    service: Histogram,
    queue_wait: Histogram,
}

/// Per-op-class service-time and queue-wait histograms.
///
/// *Service time* is time on a worker (or inline in the event loop for
/// control-plane ops); *queue wait* is the gap between a request becoming
/// runnable and a worker picking it up — inline ops record zero, so a
/// growing inter-class spread is pure scheduling pressure.
#[derive(Debug, Default)]
pub struct LatencyMetrics {
    classes: [ClassLatency; 8],
}

impl LatencyMetrics {
    /// Empty metrics.
    pub fn new() -> LatencyMetrics {
        LatencyMetrics::default()
    }

    /// Record worker/inline execution time for `class`.
    pub fn record_service(&self, class: MetricClass, d: Duration) {
        self.classes[class.idx()].service.record_duration(d);
    }

    /// Record runnable-to-picked-up wait for `class`.
    pub fn record_queue_wait(&self, class: MetricClass, d: Duration) {
        self.classes[class.idx()].queue_wait.record_duration(d);
    }

    /// Measured mean service time for `class`, µs (0 with no samples) —
    /// the read-only feedback the `estimate` reply reports next to the
    /// static cost model's charge.
    pub fn mean_service_us(&self, class: MetricClass) -> f64 {
        let service = &self.classes[class.idx()].service;
        let count = service.count();
        if count == 0 {
            0.0
        } else {
            service.sum() as f64 / count as f64
        }
    }

    /// The `(service, queue_wait)` histograms for `class` — the registry
    /// reads raw buckets from here for the Prometheus exposition.
    pub fn class_histograms(&self, class: MetricClass) -> (&Histogram, &Histogram) {
        let slot = &self.classes[class.idx()];
        (&slot.service, &slot.queue_wait)
    }

    /// Serialize every class as `{"<class>": {"service": .., "queue_wait": ..}}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            MetricClass::ALL
                .iter()
                .map(|&class| {
                    let slot = &self.classes[class.idx()];
                    (
                        class.name().to_string(),
                        Json::Obj(vec![
                            (
                                "service".into(),
                                HistogramStats::of(&slot.service.snapshot()).to_json(),
                            ),
                            (
                                "queue_wait".into(),
                                HistogramStats::of(&slot.queue_wait.snapshot()).to_json(),
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mve_obs::metrics::quantile_from_log2_buckets;

    #[test]
    fn mean_service_feedback_per_class() {
        let m = LatencyMetrics::new();
        assert_eq!(m.mean_service_us(MetricClass::Sim), 0.0);
        m.record_service(MetricClass::Sim, Duration::from_micros(100));
        m.record_service(MetricClass::Sim, Duration::from_micros(300));
        assert!((m.mean_service_us(MetricClass::Sim) - 200.0).abs() < 1e-9);
        assert_eq!(m.mean_service_us(MetricClass::Artefact), 0.0);
        let (service, wait) = m.class_histograms(MetricClass::Sim);
        assert_eq!(service.count(), 2);
        assert_eq!(wait.count(), 0);
    }

    #[test]
    fn latency_metrics_serialize_every_class() {
        let m = LatencyMetrics::new();
        m.record_service(MetricClass::Artefact, Duration::from_micros(250));
        m.record_queue_wait(MetricClass::Artefact, Duration::ZERO);
        let json = m.to_json();
        let text = json.encode();
        for class in MetricClass::ALL {
            assert!(text.contains(class.name()), "missing {}", class.name());
        }
        let artefact = json.get("artefact").expect("artefact class");
        let service = artefact.get("service").expect("service histogram");
        assert_eq!(service.get("count").and_then(Json::as_u64), Some(1));
        let wait = artefact.get("queue_wait").expect("queue_wait histogram");
        assert_eq!(wait.get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn stats_latency_json_is_pinned_for_a_fixed_sample_set() {
        // The bytes the `stats` reply's `latency` object carried before
        // the histogram moved into mve-obs, for the same samples.
        let m = LatencyMetrics::new();
        let us = Duration::from_micros;
        for v in [0, 1, 10, 10, 10, 250, 777, 1000, 5000, 100_000] {
            m.record_service(MetricClass::Artefact, us(v));
        }
        for v in [0, 3, 40] {
            m.record_queue_wait(MetricClass::Artefact, us(v));
        }
        for v in [40, 40, 40, 60, 60] {
            m.record_service(MetricClass::Sim, us(v));
        }
        m.record_service(MetricClass::Profile, us(1u64 << 63));
        let expected = concat!(
            r#"{"artefact":{"service":{"count":10,"mean_us":10705.8,"p50_us":12,"p90_us":6144,"p99_us":98304,"max_us":100000},"queue_wait":{"count":3,"mean_us":14.333333333333334,"p50_us":3,"p90_us":40,"p99_us":40,"max_us":40}},"#,
            r#""sim":{"service":{"count":5,"mean_us":48,"p50_us":48,"p90_us":48,"p99_us":48,"max_us":60},"queue_wait":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0}},"#,
            r#""compile":{"service":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0},"queue_wait":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0}},"#,
            r#""estimate":{"service":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0},"queue_wait":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0}},"#,
            r#""stats":{"service":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0},"queue_wait":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0}},"#,
            r#""metrics":{"service":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0},"queue_wait":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0}},"#,
            r#""trace":{"service":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0},"queue_wait":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0}},"#,
            r#""profile":{"service":{"count":1,"mean_us":9223372036854776000,"p50_us":9223372036854775808,"p90_us":9223372036854775808,"p99_us":9223372036854775808,"max_us":9223372036854775808},"queue_wait":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0}}}"#,
        );
        assert_eq!(m.to_json().encode(), expected);
    }

    #[test]
    fn watch_and_stats_quantiles_agree_on_the_same_buckets() {
        // `mve-client stats --watch` sees only the exposition's buckets,
        // so it computes without a max; the `stats` reply clamps to the
        // recorded max. On the same buckets the two differ only by that
        // clamp.
        let samples: [&[u64]; 4] = [
            &[10, 10, 10, 250, 777, 1000, 5000, 100_000],
            &[40, 40, 40, 60, 60],
            &[0, 1],
            &[3, 3, 3, 3, 900, 1 << 40],
        ];
        for set in samples {
            let h = Histogram::new();
            for &v in set {
                h.record(v);
            }
            let snap = h.snapshot();
            let stats = HistogramStats::of(&snap);
            for (q, from_stats) in [
                (0.50, stats.p50_us),
                (0.90, stats.p90_us),
                (0.99, stats.p99_us),
            ] {
                let watch = quantile_from_log2_buckets(&h.bucket_counts(), q, u64::MAX);
                assert_eq!(from_stats, watch.min(snap.max.max(1)), "{set:?} q={q}");
            }
        }
    }
}
