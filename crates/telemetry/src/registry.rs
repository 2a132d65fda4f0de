//! The deterministic metrics registry.
//!
//! Series are keyed by `(name, sorted label pairs)` and stored in
//! `BTreeMap`s, so every iteration — and therefore every export — is in
//! one canonical order no matter which worker thread touched which series
//! first. Counters and histogram cells are `u64`s (associative,
//! commutative addition: the totals cannot depend on scheduling), and
//! durations enter the registry already quantized to integer nanoseconds.
//!
//! Each metric carries a [`Determinism`] class chosen at its first use:
//! `Deterministic` series hold modeled quantities and must be
//! byte-identical across runs and worker counts; `Advisory` series hold
//! host-wall timings and schedule-dependent observations (queue depths,
//! shed counts) and are exported in a separate section that CI mode
//! omits.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::{json_f64, json_string};

/// Number of finite histogram buckets (the last array slot is overflow).
const BUCKETS: usize = 25;

/// Fixed log-spaced histogram boundaries, in nanoseconds: `1 µs · 2^k`
/// for `k = 0..25`, covering 1 µs to ~16.8 s of modeled time. Fixed
/// boundaries (rather than adaptive ones) are what make histogram
/// snapshots comparable across runs, worker counts, and PRs.
pub const BUCKET_BOUNDS_NS: [u64; BUCKETS] = {
    let mut bounds = [0u64; BUCKETS];
    let mut k = 0;
    while k < BUCKETS {
        bounds[k] = 1_000u64 << k;
        k += 1;
    }
    bounds
};

/// Which export section a metric belongs to; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Determinism {
    /// Modeled quantities: byte-identical across runs and worker counts.
    Deterministic,
    /// Host-wall timings and schedule-dependent observations.
    Advisory,
}

/// Metric shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
struct Meta {
    kind: MetricKind,
    class: Determinism,
    help: String,
}

/// Canonical series key: metric name plus label pairs sorted by label
/// name. `Ord` on this key is the one export order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    SeriesKey {
        name: name.to_string(),
        labels,
    }
}

#[derive(Clone, Debug)]
struct Histogram {
    /// Per-bucket (non-cumulative) counts; `buckets[BUCKETS]` is overflow.
    buckets: [u64; BUCKETS + 1],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS + 1],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn observe(&mut self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(BUCKETS);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }
}

#[derive(Clone, Debug)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<Histogram>),
}

#[derive(Default)]
struct State {
    meta: BTreeMap<String, Meta>,
    series: BTreeMap<SeriesKey, Value>,
}

/// Thread-safe metrics registry; see the module docs. One registry per
/// serving process (the engine owns one for its lifetime, accumulating
/// across batches).
#[derive(Default)]
pub struct MetricsRegistry {
    state: Mutex<State>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn touch(state: &mut State, name: &str, kind: MetricKind, class: Determinism, help: &str) {
        let meta = state.meta.entry(name.to_string()).or_insert_with(|| Meta {
            kind,
            class,
            help: help.to_string(),
        });
        debug_assert_eq!(meta.kind, kind, "metric {name} re-used with another kind");
        debug_assert_eq!(
            meta.class, class,
            "metric {name} re-used with another class"
        );
    }

    /// Add `delta` to a counter series (creating it at zero).
    pub fn inc_counter(
        &self,
        class: Determinism,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        delta: u64,
    ) {
        let mut state = self.state.lock().unwrap();
        Self::touch(&mut state, name, MetricKind::Counter, class, help);
        match state
            .series
            .entry(series_key(name, labels))
            .or_insert(Value::Counter(0))
        {
            Value::Counter(c) => *c += delta,
            other => debug_assert!(false, "{name} is not a counter: {other:?}"),
        }
    }

    /// Set a gauge series to `value`.
    pub fn set_gauge(
        &self,
        class: Determinism,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let mut state = self.state.lock().unwrap();
        Self::touch(&mut state, name, MetricKind::Gauge, class, help);
        state
            .series
            .insert(series_key(name, labels), Value::Gauge(value));
    }

    /// Raise a gauge series to `value` if it is higher than the current
    /// reading — the high-water-mark idiom (queue depth, fleet size).
    pub fn gauge_max(
        &self,
        class: Determinism,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let mut state = self.state.lock().unwrap();
        Self::touch(&mut state, name, MetricKind::Gauge, class, help);
        match state
            .series
            .entry(series_key(name, labels))
            .or_insert(Value::Gauge(f64::NEG_INFINITY))
        {
            Value::Gauge(g) => *g = g.max(value),
            other => debug_assert!(false, "{name} is not a gauge: {other:?}"),
        }
    }

    /// Record one observation, in integer nanoseconds, into a fixed
    /// log-bucket histogram series.
    pub fn observe_ns(
        &self,
        class: Determinism,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        ns: u64,
    ) {
        let mut state = self.state.lock().unwrap();
        Self::touch(&mut state, name, MetricKind::Histogram, class, help);
        match state
            .series
            .entry(series_key(name, labels))
            .or_insert_with(|| Value::Histogram(Box::new(Histogram::new())))
        {
            Value::Histogram(h) => h.observe(ns),
            other => debug_assert!(false, "{name} is not a histogram: {other:?}"),
        }
    }

    /// Read one counter series back (0 if absent) — the accessor tests and
    /// report plumbing use.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let state = self.state.lock().unwrap();
        match state.series.get(&series_key(name, labels)) {
            Some(Value::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Read one gauge series back (`None` if absent).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let state = self.state.lock().unwrap();
        match state.series.get(&series_key(name, labels)) {
            Some(Value::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Snapshot every family and series in canonical order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.state.lock().unwrap();
        let mut deterministic = Vec::new();
        let mut advisory = Vec::new();
        for (name, meta) in &state.meta {
            let series: Vec<SeriesSnapshot> = state
                .series
                .range(
                    SeriesKey {
                        name: name.clone(),
                        labels: Vec::new(),
                    }..,
                )
                .take_while(|(k, _)| &k.name == name)
                .map(|(k, v)| SeriesSnapshot {
                    labels: k.labels.clone(),
                    value: match v {
                        Value::Counter(c) => MetricValue::Counter(*c),
                        Value::Gauge(g) => MetricValue::Gauge(*g),
                        Value::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                            buckets: h
                                .buckets
                                .iter()
                                .enumerate()
                                .filter(|(_, c)| **c > 0)
                                .map(|(i, c)| (BUCKET_BOUNDS_NS.get(i).copied(), *c))
                                .collect(),
                            count: h.count,
                            sum_ns: h.sum_ns,
                            max_ns: h.max_ns,
                        }),
                    },
                })
                .collect();
            let family = MetricFamily {
                name: name.clone(),
                kind: meta.kind,
                class: meta.class,
                help: meta.help.clone(),
                series,
            };
            match meta.class {
                Determinism::Deterministic => deterministic.push(family),
                Determinism::Advisory => advisory.push(family),
            }
        }
        MetricsSnapshot {
            deterministic,
            advisory,
        }
    }
}

/// One metric family in a snapshot: shared name/kind/help plus its series
/// in canonical label order.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricFamily {
    pub name: String,
    pub kind: MetricKind,
    pub class: Determinism,
    pub help: String,
    pub series: Vec<SeriesSnapshot>,
}

/// One series: sorted labels and the value.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSnapshot {
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

/// Frozen histogram state: occupied buckets only, `(upper bound in ns —
/// `None` = overflow, non-cumulative count)`, plus exact integer totals.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<(Option<u64>, u64)>,
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
}

/// A frozen registry view, split by determinism class; see the module
/// docs for the export contract.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    pub deterministic: Vec<MetricFamily>,
    pub advisory: Vec<MetricFamily>,
}

impl MetricsSnapshot {
    /// Canonical JSON. With `include_advisory` false (CI mode) the
    /// advisory section renders as `null`, so the bytes depend only on
    /// deterministic series.
    pub fn to_json(&self, include_advisory: bool) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"tc-telemetry/1\",\n");
        out.push_str("  \"deterministic\": ");
        push_families_json(&mut out, &self.deterministic, "  ");
        out.push_str(",\n  \"advisory\": ");
        if include_advisory {
            push_families_json(&mut out, &self.advisory, "  ");
        } else {
            out.push_str("null");
        }
        out.push_str("\n}\n");
        out
    }

    /// Prometheus text exposition (version 0.0.4): families globally
    /// sorted by name, `# HELP`/`# TYPE` headers, histogram series as
    /// cumulative `_bucket`/`_sum`/`_count` with millisecond `le` labels.
    /// The advisory class is marked in the HELP text.
    pub fn to_prometheus(&self) -> String {
        let mut families: Vec<&MetricFamily> =
            self.deterministic.iter().chain(&self.advisory).collect();
        families.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out = String::with_capacity(1024);
        for fam in families {
            let class = match fam.class {
                Determinism::Deterministic => "deterministic",
                Determinism::Advisory => "advisory",
            };
            out.push_str(&format!(
                "# HELP {} [{}] {}\n# TYPE {} {}\n",
                fam.name,
                class,
                fam.help,
                fam.name,
                fam.kind.as_str()
            ));
            for s in &fam.series {
                match &s.value {
                    MetricValue::Counter(c) => {
                        out.push_str(&format!("{}{} {}\n", fam.name, labelset(&s.labels, &[]), c));
                    }
                    MetricValue::Gauge(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            fam.name,
                            labelset(&s.labels, &[]),
                            json_f64(*g)
                        ));
                    }
                    MetricValue::Histogram(h) => {
                        let mut cum = 0u64;
                        for (le_ns, c) in &h.buckets {
                            cum += c;
                            let le = le_ns.map_or("+Inf".to_string(), ns_as_ms);
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                fam.name,
                                labelset(&s.labels, &[("le", &le)]),
                                cum
                            ));
                        }
                        if h.buckets.last().is_none_or(|(le, _)| le.is_some()) {
                            // Prometheus requires the +Inf bucket even when
                            // nothing overflowed.
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                fam.name,
                                labelset(&s.labels, &[("le", "+Inf")]),
                                h.count
                            ));
                        }
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            fam.name,
                            labelset(&s.labels, &[]),
                            ns_as_ms(h.sum_ns)
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            fam.name,
                            labelset(&s.labels, &[]),
                            h.count
                        ));
                    }
                }
            }
        }
        out
    }
}

fn push_families_json(out: &mut String, families: &[MetricFamily], indent: &str) {
    if families.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push_str("[\n");
    for (i, fam) in families.iter().enumerate() {
        out.push_str(&format!("{indent}  {{\n"));
        out.push_str(&format!(
            "{indent}    \"name\": {},\n",
            json_string(&fam.name)
        ));
        out.push_str(&format!(
            "{indent}    \"kind\": \"{}\",\n",
            fam.kind.as_str()
        ));
        out.push_str(&format!(
            "{indent}    \"help\": {},\n",
            json_string(&fam.help)
        ));
        out.push_str(&format!("{indent}    \"series\": [\n"));
        for (j, s) in fam.series.iter().enumerate() {
            out.push_str(&format!("{indent}      {{\"labels\": {{"));
            for (k, (lk, lv)) in s.labels.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_string(lk), json_string(lv)));
            }
            out.push_str("}, ");
            match &s.value {
                MetricValue::Counter(c) => out.push_str(&format!("\"value\": {c}")),
                MetricValue::Gauge(g) => out.push_str(&format!("\"value\": {}", json_f64(*g))),
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "\"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \"buckets\": [",
                        h.count, h.sum_ns, h.max_ns
                    ));
                    for (k, (le_ns, c)) in h.buckets.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        match le_ns {
                            Some(ns) => out.push_str(&format!("{{\"le_ns\": {ns}, \"n\": {c}}}")),
                            None => out.push_str(&format!("{{\"le_ns\": null, \"n\": {c}}}")),
                        }
                    }
                    out.push(']');
                }
            }
            out.push('}');
            if j + 1 != fam.series.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&format!("{indent}    ]\n"));
        out.push_str(&format!("{indent}  }}"));
        if i + 1 != families.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&format!("{indent}]"));
}

/// Render a label set (base labels plus extras like `le`), `{}`-free when
/// empty, keys in sorted-then-extra order.
fn labelset(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{}=\"{}\"", k, prom_escape(v)));
    }
    out.push('}');
    out
}

fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Integer nanoseconds as an exact millisecond decimal string
/// (`1000` → `"0.001"`, `2_500_000` → `"2.5"`).
fn ns_as_ms(ns: u64) -> String {
    let whole = ns / 1_000_000;
    let frac = ns % 1_000_000;
    if frac == 0 {
        return format!("{whole}");
    }
    let s = format!("{whole}.{frac:06}");
    s.trim_end_matches('0').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_log_spaced() {
        assert_eq!(BUCKET_BOUNDS_NS[0], 1_000);
        assert_eq!(BUCKET_BOUNDS_NS[1], 2_000);
        assert_eq!(BUCKET_BOUNDS_NS[24], 1_000 << 24);
        for pair in BUCKET_BOUNDS_NS.windows(2) {
            assert_eq!(pair[1], pair[0] * 2);
        }
    }

    #[test]
    fn snapshot_is_independent_of_touch_order() {
        let mk = |order_flipped: bool| {
            let r = MetricsRegistry::new();
            type Op = Box<dyn Fn(&MetricsRegistry)>;
            let ops: Vec<Op> = vec![
                Box::new(|r: &MetricsRegistry| {
                    r.inc_counter(
                        Determinism::Deterministic,
                        "jobs_total",
                        "jobs",
                        &[("backend", "gtx980")],
                        2,
                    )
                }),
                Box::new(|r: &MetricsRegistry| {
                    r.inc_counter(
                        Determinism::Deterministic,
                        "jobs_total",
                        "jobs",
                        &[("backend", "forward")],
                        1,
                    )
                }),
                Box::new(|r: &MetricsRegistry| {
                    r.observe_ns(
                        Determinism::Deterministic,
                        "count_ms",
                        "modeled count",
                        &[],
                        1_500,
                    )
                }),
            ];
            if order_flipped {
                for op in ops.iter().rev() {
                    op(&r);
                }
            } else {
                for op in ops.iter() {
                    op(&r);
                }
            }
            r.snapshot().to_json(true)
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn advisory_section_is_separable() {
        let r = MetricsRegistry::new();
        r.inc_counter(Determinism::Deterministic, "a_total", "a", &[], 1);
        r.set_gauge(Determinism::Advisory, "wall_ms", "host wall", &[], 123.456);
        let snap = r.snapshot();
        let with = snap.to_json(true);
        let without = snap.to_json(false);
        assert!(with.contains("wall_ms"));
        assert!(!without.contains("wall_ms"));
        assert!(without.contains("\"advisory\": null"));
        assert!(without.contains("a_total"));
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let r = MetricsRegistry::new();
        r.gauge_max(Determinism::Advisory, "depth", "queue depth", &[], 2.0);
        r.gauge_max(Determinism::Advisory, "depth", "queue depth", &[], 5.0);
        r.gauge_max(Determinism::Advisory, "depth", "queue depth", &[], 3.0);
        assert_eq!(r.gauge_value("depth", &[]), Some(5.0));
    }

    #[test]
    fn histogram_buckets_and_totals_are_exact() {
        let r = MetricsRegistry::new();
        for ns in [500, 1_000, 1_001, 3_000, u64::from(u32::MAX) * 1_000] {
            r.observe_ns(Determinism::Deterministic, "h_ms", "h", &[], ns);
        }
        let snap = r.snapshot();
        let fam = &snap.deterministic[0];
        let MetricValue::Histogram(h) = &fam.series[0].value else {
            panic!("expected histogram");
        };
        assert_eq!(h.count, 5);
        assert_eq!(
            h.sum_ns,
            500 + 1_000 + 1_001 + 3_000 + u64::from(u32::MAX) * 1_000
        );
        // 500 and 1000 land in the first bucket (le 1µs), 1001 in le 2µs,
        // 3000 in le 4µs, the huge one in overflow.
        assert_eq!(h.buckets[0], (Some(1_000), 2));
        assert_eq!(h.buckets[1], (Some(2_000), 1));
        assert_eq!(h.buckets[2], (Some(4_000), 1));
        assert_eq!(h.buckets[3], (None, 1));
        assert_eq!(h.max_ns, u64::from(u32::MAX) * 1_000);
    }

    #[test]
    fn prometheus_exposition_is_sorted_and_duplicate_free() {
        let r = MetricsRegistry::new();
        r.inc_counter(Determinism::Deterministic, "z_total", "z", &[], 1);
        r.inc_counter(
            Determinism::Deterministic,
            "a_total",
            "a",
            &[("backend", "gtx980")],
            1,
        );
        r.inc_counter(
            Determinism::Deterministic,
            "a_total",
            "a",
            &[("backend", "forward")],
            1,
        );
        r.observe_ns(Determinism::Advisory, "m_ms", "m", &[], 2_500_000);
        let text = r.snapshot().to_prometheus();
        // Families sorted by name; series sorted by labels.
        let a = text.find("a_total{backend=\"forward\"}").unwrap();
        let b = text.find("a_total{backend=\"gtx980\"}").unwrap();
        let z = text.find("\nz_total ").unwrap();
        let m = text.find("m_ms_bucket").unwrap();
        assert!(a < b && b < m && m < z, "{text}");
        // Histogram renders cumulative buckets, an +Inf bucket, ms units.
        assert!(text.contains("m_ms_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("m_ms_sum 2.5"), "{text}");
        assert!(text.contains("m_ms_count 1"), "{text}");
        // No duplicate series lines.
        let mut lines: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        let before = lines.len();
        lines.dedup();
        assert_eq!(before, lines.len());
    }

    #[test]
    fn json_is_balanced_and_parsable_shape() {
        let r = MetricsRegistry::new();
        r.inc_counter(Determinism::Deterministic, "c_total", "c \"q\"", &[], 7);
        r.observe_ns(Determinism::Advisory, "h_ms", "h", &[("s", "x")], 42_000);
        let json = r.snapshot().to_json(true);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\\\"q\\\""));
        assert!(json.contains("\"schema\": \"tc-telemetry/1\""));
    }

    #[test]
    fn ms_strings_are_exact_decimals() {
        assert_eq!(ns_as_ms(0), "0");
        assert_eq!(ns_as_ms(1_000), "0.001");
        assert_eq!(ns_as_ms(2_500_000), "2.5");
        assert_eq!(ns_as_ms(16_777_216_000), "16777.216");
    }
}
