//! Unified metrics registry, Prometheus text exposition, and the log2
//! latency [`Histogram`] whose live atomics the registry snapshots.
//!
//! A [`MetricsRegistry`] is a *snapshot*, not a live store: the owner of
//! the real atomics (e.g. the serve daemon) rebuilds one per render, in a
//! single function that is the only place metrics are enumerated. Both
//! human-facing views (the `stats` JSON reply) and the machine-facing
//! `metrics` op (Prometheus text exposition format, [spec]) are derived
//! from the same registry, so a counter cannot exist in one and not the
//! other.
//!
//! Naming convention: short names (`requests`, `hits`) inside the
//! registry — identical to the historical `stats` JSON keys — and a
//! `<prefix>_` namespace (e.g. `mve_serve_requests`) applied only at
//! exposition time.
//!
//! [spec]: https://prometheus.io/docs/instrumenting/exposition_formats/

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One scalar metric value. `stats` JSON needs to distinguish integer
/// counters from float gauges to keep its historical byte format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    U64(u64),
    F64(f64),
}

impl Scalar {
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::U64(v) => v as f64,
            Scalar::F64(v) => v,
        }
    }
}

/// Buckets in a [`Histogram`]: one per power of two of a `u64`.
pub const LOG2_BUCKETS: usize = 64;

/// A concurrent log2-bucketed histogram of microsecond values.
///
/// Bucket *i* holds values in `[2^i, 2^(i+1))`, with 0 and 1 folded into
/// bucket 0. Recording is three relaxed atomic adds and one atomic max —
/// cheap enough to sit on every request. Quantiles come from
/// [`quantile_from_log2_buckets`], so any quantile is exact to within its
/// bucket, which is the right resolution for spotting queueing collapse,
/// not for timing kernels.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample, in microseconds.
    pub fn record(&self, value_us: u64) {
        let idx = value_us.max(1).ilog2() as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_us, Ordering::Relaxed);
        self.max.fetch_max(value_us, Ordering::Relaxed);
    }

    /// Record a duration as microseconds (saturating).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values, µs.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value, µs.
    pub fn max_us(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Raw per-bucket counts (bucket `i` holds `v.max(1).ilog2() == i`),
    /// the layout the Prometheus exposition emits verbatim.
    pub fn bucket_counts(&self) -> [u64; LOG2_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Folds another histogram's samples into this one (bucket-wise add;
    /// max takes the larger). Used to merge per-class series into one.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max_us(), Ordering::Relaxed);
    }

    /// Zeroes every bucket and aggregate. Not atomic with respect to
    /// concurrent recorders (a racing sample may survive or vanish), which
    /// is fine for its test/tooling uses.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buckets and aggregates.
    pub fn snapshot(&self) -> Log2Histogram {
        Log2Histogram {
            counts: self.bucket_counts(),
            count: self.count(),
            sum: self.sum(),
            max: self.max_us(),
        }
    }
}

/// A [`Histogram`] snapshot: `counts[i]` holds samples whose value `v`
/// satisfies `v.max(1).ilog2() == i` (bucket 0 therefore covers `0..=1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Histogram {
    pub counts: [u64; LOG2_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Log2Histogram {
    /// Inclusive-upper `le` bound of bucket `i` in Prometheus terms:
    /// bucket `i` holds values `< 2^(i+1)`.
    pub fn le_bound(i: usize) -> f64 {
        (2u128 << i) as f64
    }

    /// Quantile `q` of the snapshot, clamped to the recorded max.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_log2_buckets(&self.counts, q, self.max)
    }
}

#[derive(Debug, Clone)]
enum Value {
    Scalar(Scalar),
    Histogram(Box<Log2Histogram>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct MetricSample {
    labels: Vec<(String, String)>,
    value: Value,
}

/// One metric family: a name, help text, a type, and one or more labeled
/// samples.
#[derive(Debug, Clone)]
pub struct Family {
    name: String,
    help: String,
    kind: Kind,
    samples: Vec<MetricSample>,
}

/// A point-in-time metrics snapshot. Insertion order is preserved in
/// every rendering, so the owner's build function fully determines both
/// the `stats` JSON member order and the exposition layout.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn family_mut(&mut self, name: &str, help: &str, kind: Kind) -> &mut Family {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            assert_eq!(
                self.families[i].kind, kind,
                "metric {name} re-registered with a different type"
            );
            &mut self.families[i]
        } else {
            self.families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                samples: Vec::new(),
            });
            self.families.last_mut().unwrap()
        }
    }

    /// Registers a monotonically increasing counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.family_mut(name, help, Kind::Counter)
            .samples
            .push(MetricSample {
                labels: Vec::new(),
                value: Value::Scalar(Scalar::U64(value)),
            });
    }

    /// Registers an integer gauge (point-in-time level).
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.family_mut(name, help, Kind::Gauge)
            .samples
            .push(MetricSample {
                labels: Vec::new(),
                value: Value::Scalar(Scalar::U64(value)),
            });
    }

    /// Registers a float gauge.
    pub fn gauge_f(&mut self, name: &str, help: &str, value: f64) {
        self.family_mut(name, help, Kind::Gauge)
            .samples
            .push(MetricSample {
                labels: Vec::new(),
                value: Value::Scalar(Scalar::F64(value)),
            });
    }

    /// Registers one labeled float-gauge sample under family `name` — a
    /// gauge *family* (one sample per label set, e.g. a per-class
    /// measured cost). Labeled samples render in the exposition only;
    /// [`MetricsRegistry::scalars`] skips them, so adding a family never
    /// perturbs a stats-JSON layout derived from the unlabeled scalars.
    pub fn gauge_f_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family_mut(name, help, Kind::Gauge)
            .samples
            .push(MetricSample {
                labels: owned_labels(labels),
                value: Value::Scalar(Scalar::F64(value)),
            });
    }

    /// Registers one labeled histogram sample under family `name`: a
    /// snapshot of `h` taken now.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.family_mut(name, help, Kind::Histogram)
            .samples
            .push(MetricSample {
                labels: owned_labels(labels),
                value: Value::Histogram(Box::new(h.snapshot())),
            });
    }

    /// Iterates unlabeled scalar metrics in insertion order as
    /// `(short_name, scalar)` — the `stats` JSON derivation.
    pub fn scalars(&self) -> impl Iterator<Item = (&str, Scalar)> {
        self.families.iter().flat_map(|f| {
            f.samples.iter().filter_map(|s| match s.value {
                Value::Scalar(v) if s.labels.is_empty() => Some((f.name.as_str(), v)),
                _ => None,
            })
        })
    }

    /// Looks up an unlabeled scalar by short name.
    pub fn scalar(&self, name: &str) -> Option<Scalar> {
        self.scalars().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Renders the registry in Prometheus text exposition format, with
    /// every family name prefixed by `<prefix>_`.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut out = String::with_capacity(4096);
        for fam in &self.families {
            let full = format!("{prefix}_{}", fam.name);
            debug_assert!(valid_metric_name(&full), "bad metric name {full}");
            let _ = writeln!(out, "# HELP {full} {}", fam.help);
            let _ = writeln!(out, "# TYPE {full} {}", fam.kind.name());
            for sample in &fam.samples {
                match &sample.value {
                    Value::Scalar(v) => {
                        let _ = writeln!(
                            out,
                            "{full}{} {}",
                            render_labels(&sample.labels),
                            fmt_value(v.as_f64())
                        );
                    }
                    Value::Histogram(snap) => {
                        render_histogram(&mut out, &full, &sample.labels, snap)
                    }
                }
            }
        }
        out
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn render_histogram(
    out: &mut String,
    full: &str,
    labels: &[(String, String)],
    snap: &Log2Histogram,
) {
    // Emit cumulative buckets up to the last non-empty one; the +Inf
    // bucket always closes the series at the total count.
    let last = snap
        .counts
        .iter()
        .rposition(|&c| c != 0)
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &c) in snap.counts.iter().take(last).enumerate() {
        cumulative += c;
        let le = fmt_value(Log2Histogram::le_bound(i));
        let _ = writeln!(
            out,
            "{full}_bucket{} {cumulative}",
            render_labels_with(labels, "le", &le)
        );
    }
    let _ = writeln!(
        out,
        "{full}_bucket{} {}",
        render_labels_with(labels, "le", "+Inf"),
        snap.count
    );
    let _ = writeln!(out, "{full}_sum{} {}", render_labels(labels), snap.sum);
    let _ = writeln!(out, "{full}_count{} {}", render_labels(labels), snap.count);
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        crate::log::escape_json(v, &mut out);
        out.push('"');
    }
    out.push('}');
    out
}

fn render_labels_with(labels: &[(String, String)], extra_key: &str, extra_val: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push((extra_key.to_string(), extra_val.to_string()));
    render_labels(&all)
}

/// Formats a float the way Prometheus expects: integers without a
/// fractional part, everything else via Rust's shortest-roundtrip `{}`.
fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        return "+Inf".to_string();
    }
    if v == f64::NEG_INFINITY {
        return "-Inf".to_string();
    }
    if v.is_nan() {
        return "NaN".to_string();
    }
    format!("{v}")
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

// ---------------------------------------------------------------------------
// Exposition parser (test / CI side)
// ---------------------------------------------------------------------------

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// `(family_name, type)` in document order.
    pub families: Vec<(String, String)>,
    pub samples: Vec<ParsedSample>,
}

impl Exposition {
    /// Value of the first sample matching `name` and all of `labels`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
    }

    pub fn family_type(&self, name: &str) -> Option<&str> {
        self.families
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }
}

/// Strictly parses a Prometheus text exposition document, validating:
///
/// * every sample belongs to a family announced by a preceding `# TYPE`
///   (histogram samples may use the `_bucket`/`_sum`/`_count` suffixes),
/// * metric and label names match the spec charset,
/// * `# TYPE` values are legal, families are not re-announced,
/// * histogram `le` buckets are cumulative (non-decreasing) and end in a
///   `+Inf` bucket equal to `_count`.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    let mut current_family: Option<(String, String)> = None;

    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let err = |msg: String| format!("line {}: {msg}", ln + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("").to_string();
            let kind = parts
                .next()
                .ok_or_else(|| err("TYPE missing kind".into()))?
                .to_string();
            if !valid_metric_name(&name) {
                return Err(err(format!("invalid metric name {name:?}")));
            }
            if !matches!(
                kind.as_str(),
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(err(format!("invalid TYPE {kind:?}")));
            }
            if exp.families.iter().any(|(n, _)| *n == name) {
                return Err(err(format!("family {name} announced twice")));
            }
            exp.families.push((name.clone(), kind.clone()));
            current_family = Some((name, kind));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(err(format!("invalid metric name {name:?} in HELP")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }

        let sample = parse_sample_line(line).map_err(&err)?;
        let (fam_name, fam_kind) = current_family
            .as_ref()
            .ok_or_else(|| err(format!("sample {} before any # TYPE", sample.name)))?;
        let belongs = if fam_kind == "histogram" {
            sample.name == *fam_name
                || sample.name == format!("{fam_name}_bucket")
                || sample.name == format!("{fam_name}_sum")
                || sample.name == format!("{fam_name}_count")
        } else {
            sample.name == *fam_name
        };
        if !belongs {
            return Err(err(format!(
                "sample {} does not belong to current family {fam_name} ({fam_kind})",
                sample.name
            )));
        }
        exp.samples.push(sample);
    }

    validate_histograms(&exp)?;
    Ok(exp)
}

fn parse_sample_line(line: &str) -> Result<ParsedSample, String> {
    let (name_labels, value_str) = match line.rfind(' ') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => return Err(format!("sample line {line:?} has no value")),
    };
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {s:?}"))?,
    };
    let (name, labels) = match name_labels.find('{') {
        None => (name_labels.to_string(), Vec::new()),
        Some(open) => {
            if !name_labels.ends_with('}') {
                return Err(format!("unterminated label set in {name_labels:?}"));
            }
            let name = name_labels[..open].to_string();
            let body = &name_labels[open + 1..name_labels.len() - 1];
            (name, parse_labels(body)?)
        }
    };
    if !valid_metric_name(&name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    Ok(ParsedSample {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {body:?}"))?;
        let key = rest[..eq].to_string();
        if !valid_label_name(&key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value not quoted in {body:?}"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    other => return Err(format!("bad escape {other:?} in label value")),
                },
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = consumed.ok_or_else(|| format!("unterminated label value in {body:?}"))?;
        labels.push((key, value));
        rest = &rest[end..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("expected ',' between labels in {body:?}"));
        }
    }
    Ok(labels)
}

/// One histogram series during validation: the non-`le` label set and
/// its `(le, cumulative_count)` buckets in document order.
type BucketSeries = (Vec<(String, String)>, Vec<(f64, f64)>);

fn validate_histograms(exp: &Exposition) -> Result<(), String> {
    for (fam, kind) in &exp.families {
        if kind != "histogram" {
            continue;
        }
        let bucket_name = format!("{fam}_bucket");
        let count_name = format!("{fam}_count");
        // Group buckets by their non-`le` label set.
        let mut series: Vec<BucketSeries> = Vec::new();
        for s in exp.samples.iter().filter(|s| s.name == bucket_name) {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| match v.as_str() {
                    "+Inf" => Ok(f64::INFINITY),
                    v => v.parse::<f64>().map_err(|_| format!("bad le {v:?}")),
                })
                .ok_or_else(|| format!("{bucket_name} sample without le label"))??;
            let key: Vec<(String, String)> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            match series.iter_mut().find(|(k, _)| *k == key) {
                Some((_, buckets)) => buckets.push((le, s.value)),
                None => series.push((key, vec![(le, s.value)])),
            }
        }
        for (key, buckets) in &series {
            for pair in buckets.windows(2) {
                if pair[1].0 <= pair[0].0 {
                    return Err(format!("{bucket_name}{key:?}: le bounds not increasing"));
                }
                if pair[1].1 < pair[0].1 {
                    return Err(format!(
                        "{bucket_name}{key:?}: bucket counts not cumulative"
                    ));
                }
            }
            let last = buckets
                .last()
                .ok_or_else(|| format!("{bucket_name}: empty series"))?;
            if last.0 != f64::INFINITY {
                return Err(format!("{bucket_name}{key:?}: missing +Inf bucket"));
            }
            let count = exp
                .samples
                .iter()
                .find(|s| {
                    s.name == count_name
                        && key
                            .iter()
                            .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
                })
                .ok_or_else(|| format!("{count_name}{key:?}: missing"))?;
            if count.value != last.1 {
                return Err(format!("{bucket_name}{key:?}: +Inf bucket != _count"));
            }
        }
    }
    Ok(())
}

/// Approximate quantile (`0.0..=1.0`) from raw log2 bucket counts. The
/// bucket `i` holding rank ⌈q·n⌉ reports its midpoint `1.5·2^i`, clamped
/// to `max` (the largest recorded value; pass `u64::MAX` when it is not
/// known). The daemon's `stats` percentiles and the client-side
/// `stats --watch` p99 both come from here.
pub fn quantile_from_log2_buckets(counts: &[u64], q: f64, max: u64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        seen += n;
        if seen >= rank {
            let lo = 1u64 << i;
            return lo.saturating_add(lo / 2).min(max.max(1));
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("requests", "Total requests received.", 42);
        reg.counter("hits", "Cache hits.", 17);
        reg.gauge_f("hit_rate", "Hits over lookups.", 0.25);
        let h = Histogram::new();
        h.record(0); // two samples <= 1us
        h.record(1);
        h.record(49); // one in [32,64)
        reg.histogram(
            "request_service_us",
            "Service time per op class.",
            &[("class", "artefact")],
            &h,
        );
        reg
    }

    #[test]
    fn render_parse_roundtrip() {
        let reg = sample_registry();
        let text = reg.render_prometheus("mve_serve");
        let exp = parse_exposition(&text).expect("well-formed exposition");
        assert_eq!(exp.family_type("mve_serve_requests"), Some("counter"));
        assert_eq!(exp.value("mve_serve_requests", &[]), Some(42.0));
        assert_eq!(exp.value("mve_serve_hit_rate", &[]), Some(0.25));
        // Histogram: cumulative buckets, +Inf == count, sum/count present.
        assert_eq!(
            exp.value(
                "mve_serve_request_service_us_bucket",
                &[("class", "artefact"), ("le", "2")]
            ),
            Some(2.0)
        );
        assert_eq!(
            exp.value(
                "mve_serve_request_service_us_bucket",
                &[("class", "artefact"), ("le", "64")]
            ),
            Some(3.0)
        );
        assert_eq!(
            exp.value(
                "mve_serve_request_service_us_bucket",
                &[("class", "artefact"), ("le", "+Inf")]
            ),
            Some(3.0)
        );
        assert_eq!(
            exp.value("mve_serve_request_service_us_sum", &[("class", "artefact")]),
            Some(50.0)
        );
        assert_eq!(
            exp.value(
                "mve_serve_request_service_us_count",
                &[("class", "artefact")]
            ),
            Some(3.0)
        );
    }

    #[test]
    fn scalars_preserve_insertion_order() {
        let reg = sample_registry();
        let names: Vec<&str> = reg.scalars().map(|(n, _)| n).collect();
        assert_eq!(names, ["requests", "hits", "hit_rate"]);
        assert_eq!(reg.scalar("hits"), Some(Scalar::U64(17)));
    }

    #[test]
    fn parser_rejects_malformed() {
        assert!(parse_exposition("mve_x 1").is_err(), "sample before TYPE");
        assert!(
            parse_exposition("# TYPE mve_x widget\nmve_x 1").is_err(),
            "bad kind"
        );
        assert!(
            parse_exposition("# TYPE mve_x counter\nmve_y 1").is_err(),
            "family mismatch"
        );
        assert!(
            parse_exposition("# TYPE mve_x counter\nmve_x{le=\"oops} 1").is_err(),
            "unterminated label"
        );
        assert!(
            parse_exposition("# TYPE 9bad counter\n9bad 1").is_err(),
            "invalid metric name"
        );
        // Histogram without +Inf bucket.
        let text = "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_sum 1\nh_count 1\n";
        assert!(parse_exposition(text).is_err());
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(
            quantile_from_log2_buckets(&[0; LOG2_BUCKETS], 0.99, u64::MAX),
            0
        );
    }

    #[test]
    fn percentiles_are_bucket_accurate_and_ordered() {
        let h = Histogram::new();
        // 90 fast samples at ~10µs, 9 at ~1ms, 1 at 100ms.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..9 {
            h.record(1000);
        }
        h.record(100_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 90 * 10 + 9 * 1000 + 100_000);
        assert_eq!(s.max, 100_000);
        let (p50, p90, p99) = (s.quantile(0.50), s.quantile(0.90), s.quantile(0.99));
        // p50 lands in the [8,16) bucket, p99 in the [512,1024) bucket.
        assert_eq!(p50, 12);
        assert!(p50 <= p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");
        assert_eq!(p99, 768);
    }

    #[test]
    fn zero_and_one_fold_into_the_first_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 1);
        assert_eq!(s.counts[0], 2);
        // Bucket 0 reports 1 (its midpoint rounds down to the max).
        assert_eq!(s.quantile(0.99), 1);
    }

    #[test]
    fn single_sample_reports_itself_at_every_percentile() {
        let h = Histogram::new();
        h.record(777);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.quantile(0.5), s.quantile(0.99));
        // Bucket [512,1024): midpoint 768 <= max 777.
        assert_eq!(s.quantile(0.99), 768);
        assert_eq!(s.max, 777);
    }

    #[test]
    fn single_occupied_bucket_reports_one_value_for_every_quantile() {
        // All samples in one bucket: every quantile collapses to the
        // bucket's midpoint 1.5·2^i, clamped to the recorded max when the
        // max sits below it; without a max nothing clamps.
        let clamped = Histogram::new();
        for _ in 0..5 {
            clamped.record(40); // bucket [32,64), midpoint 48 > max 40
        }
        let unclamped = Histogram::new();
        for _ in 0..5 {
            unclamped.record(60); // same bucket, midpoint 48 < max 60
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(clamped.snapshot().quantile(q), 40, "q={q}");
            assert_eq!(unclamped.snapshot().quantile(q), 48, "q={q}");
            let counts = clamped.bucket_counts();
            assert_eq!(quantile_from_log2_buckets(&counts, q, u64::MAX), 48);
        }
    }

    #[test]
    fn top_bucket_saturates_and_clamps_to_the_recorded_max() {
        // ilog2 == 63: huge samples land in (and stay in) the top bucket.
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.counts[63], 2);
        assert_eq!(s.counts.iter().sum::<u64>(), 2);
        // The midpoint 2^63 + 2^62 fits a u64: no wrap to a tiny value.
        let mid = (1u64 << 63) + (1u64 << 62);
        assert_eq!(s.quantile(0.99), mid);
        assert_eq!(quantile_from_log2_buckets(&s.counts, 0.99, u64::MAX), mid);

        // With every recorded value below the midpoint, the clamp — not
        // the midpoint — is reported.
        let low = Histogram::new();
        for _ in 0..10 {
            low.record(1u64 << 63);
        }
        let s = low.snapshot();
        assert_eq!(s.quantile(0.5), 1u64 << 63);
        assert_eq!(s.quantile(0.99), 1u64 << 63);
        assert_eq!(s.max, 1u64 << 63);
    }

    #[test]
    fn merge_then_quantile_matches_one_histogram_with_all_samples() {
        // Bucket-wise addition is exactly how per-class histograms merge
        // into one series; every snapshot field — and so every quantile —
        // over the merge equals the single histogram of the union.
        let inputs: [(&[u64], &[u64]); 2] = [
            (&[3, 10, 100, 5000], &[7, 70, 700, 70_000, 1_000_000]),
            (&[4, 4, 4, 4, 4, 300], &[5, 5, 16, 16, 16, 16, 16, 16, 16]),
        ];
        for (xs, ys) in inputs {
            let (a, b, all) = (Histogram::new(), Histogram::new(), Histogram::new());
            for &v in xs {
                a.record(v);
                all.record(v);
            }
            for &v in ys {
                b.record(v);
                all.record(v);
            }
            a.merge(&b);
            assert_eq!(a.snapshot(), all.snapshot());
            for q in [0.5, 0.9, 0.99] {
                assert_eq!(a.snapshot().quantile(q), all.snapshot().quantile(q));
            }
        }
        // The second input: 15 samples, rank 8 lands in bucket 4 and rank
        // 15 in bucket 8.
        let merged = Histogram::new();
        for v in [4, 4, 4, 4, 4, 300, 5, 5, 16, 16, 16, 16, 16, 16, 16] {
            merged.record(v);
        }
        let counts = merged.bucket_counts();
        assert_eq!(quantile_from_log2_buckets(&counts, 0.5, u64::MAX), 24);
        assert_eq!(quantile_from_log2_buckets(&counts, 0.99, u64::MAX), 384);
    }

    #[test]
    fn merge_folds_buckets_count_sum_and_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1030);
        assert_eq!(a.max_us(), 1000);
        assert_eq!(a.snapshot().quantile(0.99), 768);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn reset_returns_to_empty() {
        let h = Histogram::new();
        h.record(42);
        h.record(7);
        assert_eq!(h.count(), 2);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.snapshot(), Histogram::new().snapshot());
    }
}
