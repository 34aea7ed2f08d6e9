//! Metric names, the end-to-end summary of a timed window, and the
//! result line.

use mve_serve::Json;

use crate::stats::{self, Pct};

/// The end-to-end metrics every untraced run prints, in order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_per_s", "1/s"),
    ("late_req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ok_frac", "frac"),
];

/// Which end-to-end metric, on which workload, each per-layer metric
/// should move: `(name prefix, what it moves)`, first match wins.
const MOVES: &[(&str, &str)] = &[
    ("artefacts.", "reproduce_paper.wall_s"),
    ("kernels.", "reproduce_paper.wall_s, serve_miss.p50_ms"),
    ("core.engine.", "reproduce_paper.wall_s"),
    ("core.sim", "reproduce_paper.wall_s, serve_miss.req_per_s"),
    ("coresim.", "reproduce_paper.wall_s"),
    ("memsim.", "reproduce_paper.wall_s"),
    ("baselines.", "reproduce_paper.wall_s"),
    ("energy.", "reproduce_paper.wall_s"),
    (
        "hit.server.flush_us",
        "serve_hit.late_req_per_s, serve_hit.p99_ms",
    ),
    ("hit.server.queue_wait_us", "serve_hit.p50_ms"),
    ("hit.server.window", "serve_hit.late_req_per_s"),
    ("hit.", "serve_hit.req_per_s"),
    ("miss.server.exec_us", "serve_miss.p50_ms"),
    ("miss.server.window", "serve_miss.late_req_per_s"),
    ("miss.", "serve_miss.req_per_s"),
    ("cache.fetch_hit_ns", "serve_hit.p50_ms"),
    ("protocol.", "serve_hit.req_per_s"),
    ("lang.", "serve_miss.p50_ms"),
    (
        "overhead.",
        "tracing cost: traced minus untraced run of this workload",
    ),
];

/// What a per-layer metric should move (see [`MOVES`]).
pub fn moves(name: &str) -> &'static str {
    MOVES
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("-", |(_, m)| m)
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// One timed window: its raw samples and its failure tally.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Median host seconds of the repeated set-ups.
    pub setup_s: f64,
    /// Host seconds of the timed work (for `reproduce_paper`, the median
    /// pass).
    pub wall_s: f64,
    /// VmHWM of the measured process, MiB.
    pub peak_rss_mb: f64,
    /// Request-to-reply (or per-render) seconds, one per completion.
    pub latencies_s: Vec<f64>,
    /// Completion instants of each client stream (one per connection;
    /// one for `reproduce_paper`), seconds since the window opened.
    pub completions_s: Vec<Vec<f64>>,
    /// Requests (or renders) attempted, correctness gates included.
    pub attempted: u64,
    /// Lost, error, overloaded, or mismatched.
    pub failed: u64,
}

impl Window {
    /// The eight end-to-end metrics, in [`END_TO_END`] order. Rates are
    /// summed over the client streams, each over its own sequence, so one
    /// connection finishing early does not read as a slowdown.
    pub fn metrics(&self) -> Metrics {
        let lat = stats::sorted(&self.latencies_s);
        let pct = |p| {
            if lat.is_empty() {
                f64::NAN
            } else {
                stats::percentile(&lat, p) * 1e3
            }
        };
        let streams = || self.completions_s.iter().filter(|c| !c.is_empty());
        let rate: f64 = streams()
            .map(|c| c.len() as f64 / stats::sorted(c)[c.len() - 1])
            .sum();
        let late: f64 = streams().map(|c| stats::tail_rate(c)).sum();
        let values = [
            self.setup_s,
            self.wall_s,
            self.peak_rss_mb,
            rate,
            late,
            pct(Pct::P50),
            pct(Pct::P99),
            1.0 - self.fail_frac(),
        ];
        let mut m = Metrics::default();
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            m.push(*name, unit, value);
        }
        m
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable summary: every metric by name and unit, the
    /// latency sample count, and the highest percentile it supports.
    pub fn print(&self, workload: &str, traced: bool) {
        let tag = if traced { "traced" } else { "untraced" };
        println!("== {workload} ({tag})");
        for m in &self.metrics().0 {
            println!("  {:<16} {:>14.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  {:<16} {:>14.6} frac ({} failed of {} attempted)",
            "fail_frac",
            self.fail_frac(),
            self.failed,
            self.attempted
        );
        let lat = stats::sorted(&self.latencies_s);
        match stats::highest_supported(lat.len()) {
            Some(p) => println!(
                "  latency: {} samples; highest percentile with >=10 samples beyond it: {} = {:.6} ms",
                lat.len(),
                p.label(),
                stats::percentile(&lat, p) * 1e3
            ),
            None => println!(
                "  latency: {} samples; too few for any percentile with >=10 samples beyond it",
                lat.len()
            ),
        }
    }
}

/// One measured workload: its timed window and, when traced, its
/// per-layer metrics.
pub struct Measured {
    pub window: Window,
    pub layers: Metrics,
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let members = metrics
        .0
        .iter()
        .map(|m| {
            let value = Json::Obj(vec![
                ("value".to_owned(), Json::F64(m.value)),
                ("unit".to_owned(), Json::Str(m.unit.to_owned())),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::U64(attempted.max(1))),
        ("failed".to_owned(), Json::U64(failed)),
        ("metrics".to_owned(), Json::Obj(members)),
    ])
    .encode()
}
