//! Observability layer for the ModChecker reproduction.
//!
//! The paper's evaluation (Figures 6–8) is entirely timing- and
//! overhead-based, so the reproduction needs one coherent place where
//! simulated cost lands instead of counters scattered across `VmiStats`,
//! `CacheStats` and ad-hoc ledgers. This crate provides that substrate:
//!
//! * [`TraceSpan`] + the [`span!`] macro — a lightweight span tree charged in
//!   *simulated* nanoseconds (the same currency as the `simtime` ledger), so
//!   a scan decomposes into capture → page-map → parse → hash → vote with no
//!   lost or double-charged time.
//! * [`MetricsRegistry`] — named counters, gauges and histograms that the
//!   hypervisor, VMI and core crates all register into.
//! * Exporters — Prometheus-style text ([`MetricsRegistry::to_prometheus_text`]),
//!   JSON ([`MetricsRegistry::to_json`]) and JSONL span dumps
//!   ([`TraceSpan::to_jsonl`]).
//! * A minimal JSON-schema [`schema`] validator so CI can gate the JSON
//!   export against a checked-in schema without network dependencies.
//!
//! Everything here is deterministic: maps are `BTreeMap`s, exports are
//! sorted, and no wall-clock time is ever read. Two scans that perform the
//! same simulated work export byte-identical documents.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Display;
use std::fmt::Write as _;

use serde_json::{json, Value};

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Default histogram bucket upper bounds, in simulated milliseconds.
///
/// Chosen to straddle the paper's reported per-module scan times (tens of
/// milliseconds for a single capture, hundreds for a pool sweep).
pub const DEFAULT_BUCKETS_MS: [f64; 12] = [
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
];

/// A fixed-bucket histogram in the Prometheus style: per-bucket counts, a
/// running sum and a total count. Observations above the last bound land in
/// an implicit `+Inf` overflow bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(&DEFAULT_BUCKETS_MS)
    }
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    #[must_use]
    pub fn with_bounds(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Cumulative `(upper_bound, count)` pairs, ending with the `+Inf`
    /// bucket (whose bound is `f64::INFINITY` and count equals `count()`).
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut running = 0;
        let mut out = Vec::with_capacity(self.bounds.len() + 1);
        for (i, &b) in self.bounds.iter().enumerate() {
            running += self.counts[i];
            out.push((b, running));
        }
        out.push((f64::INFINITY, self.count));
        out
    }

    /// Folds another histogram into this one. The bucket layouts must match;
    /// mismatched layouts are ignored rather than corrupting counts.
    pub fn merge(&mut self, other: &Histogram) {
        if self.bounds != other.bounds {
            return;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    fn to_json(&self) -> Value {
        let buckets: Vec<Value> = self
            .cumulative_buckets()
            .iter()
            .map(|&(le, count)| {
                if le.is_finite() {
                    json!({ "le": le, "count": count })
                } else {
                    json!({ "le": "+Inf", "count": count })
                }
            })
            .collect();
        json!({ "count": self.count, "sum": self.sum, "buckets": buckets })
    }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// A central registry of named counters (monotonic `u64`), gauges (`f64`
/// point-in-time values) and [`Histogram`]s.
///
/// Names are sorted on export, so two registries holding the same values
/// always serialize identically — the property the sequential-vs-parallel
/// determinism tests pin down.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of a counter (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Current value of a gauge, if it has been set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one observation into the named histogram (created with
    /// [`DEFAULT_BUCKETS_MS`] on first touch).
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// The named histogram, if any observation has been recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Sorted iterator over `(name, value)` counters.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Sorted iterator over `(name, value)` gauges.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// other's value (last write wins), histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_insert_with(|| Histogram::with_bounds(&h.bounds))
                .merge(h);
        }
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// `# TYPE` comments, bare `name value` samples, and `_bucket`/`_sum`/
    /// `_count` series for histograms.
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (le, count) in h.cumulative_buckets() {
                if le.is_finite() {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {count}");
                } else {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                }
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
        }
        out
    }

    /// Renders the registry as a three-section JSON document:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {..}}`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let counters: Vec<(String, Value)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::to_value(v)))
            .collect();
        let gauges: Vec<(String, Value)> = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::to_value(v)))
            .collect();
        let histograms: Vec<(String, Value)> = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        json!({
            "counters": Value::Object(counters),
            "gauges": Value::Object(gauges),
            "histograms": Value::Object(histograms),
        })
    }
}

/// Checks one line of Prometheus text-format output: either a `#` comment or
/// `name[{label="value",...}] number` with a valid metric identifier.
#[must_use]
pub fn is_valid_prometheus_line(line: &str) -> bool {
    if line.starts_with('#') {
        return line.starts_with("# ");
    }
    let ident_end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    if ident_end == 0 || line.as_bytes()[0].is_ascii_digit() {
        return false;
    }
    let mut rest = &line[ident_end..];
    if let Some(close) = rest.strip_prefix('{').and_then(|r| r.find('}')) {
        // Labels: every pair must look like key="value".
        let labels = &rest[1..=close];
        let all_quoted = labels.split(',').all(|pair| {
            pair.split_once('=')
                .is_some_and(|(_, v)| v.len() >= 2 && v.starts_with('"') && v.ends_with('"'))
        });
        if !all_quoted {
            return false;
        }
        rest = &rest[close + 2..];
    }
    let value = rest.trim_start();
    !value.is_empty() && (value == "+Inf" || value == "-Inf" || value.parse::<f64>().is_ok())
}

// ---------------------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------------------

/// One node of a simulated-time span tree.
///
/// A span records the *simulated* duration of a named phase, plus the retry
/// and fault-injection counts attributed to it, and nests child spans. The
/// accounting identity the observability tests pin is: a parent's duration
/// equals the sum of its children's durations plus its own
/// [`self_time_ns`](TraceSpan::self_time_ns).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSpan {
    /// Phase name, e.g. `"capture"` or `"vote"`.
    pub name: String,
    /// Free-form `key=value` attributes (VM name, module, strategy, …).
    pub attrs: Vec<(String, String)>,
    /// Simulated duration in nanoseconds, children included.
    pub duration_ns: u64,
    /// Retries charged to this span.
    pub retries: u64,
    /// Injected faults observed during this span.
    pub faults: u64,
    /// Nested child spans, in execution order.
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// Creates a span with the given name and everything else zeroed.
    #[must_use]
    pub fn new(name: &str) -> Self {
        TraceSpan {
            name: name.to_string(),
            ..TraceSpan::default()
        }
    }

    /// Attaches a `key=value` attribute (builder style).
    #[must_use]
    pub fn with_attr(mut self, key: &str, value: &impl Display) -> Self {
        self.attrs.push((key.to_string(), value.to_string()));
        self
    }

    /// Sets the simulated duration (builder style).
    #[must_use]
    pub fn with_duration_ns(mut self, ns: u64) -> Self {
        self.duration_ns = ns;
        self
    }

    /// Sets the retry count (builder style).
    #[must_use]
    pub fn with_retries(mut self, retries: u64) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the fault count (builder style).
    #[must_use]
    pub fn with_faults(mut self, faults: u64) -> Self {
        self.faults = faults;
        self
    }

    /// Appends a child span.
    pub fn push(&mut self, child: TraceSpan) {
        self.children.push(child);
    }

    /// Sum of the direct children's durations.
    #[must_use]
    pub fn children_total_ns(&self) -> u64 {
        self.children.iter().map(|c| c.duration_ns).sum()
    }

    /// Time charged to this span itself, i.e. duration not covered by
    /// children (saturating — never negative).
    #[must_use]
    pub fn self_time_ns(&self) -> u64 {
        self.duration_ns.saturating_sub(self.children_total_ns())
    }

    /// Total retries in this span and all descendants.
    #[must_use]
    pub fn total_retries(&self) -> u64 {
        self.retries
            + self
                .children
                .iter()
                .map(TraceSpan::total_retries)
                .sum::<u64>()
    }

    /// Total faults in this span and all descendants.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.faults
            + self
                .children
                .iter()
                .map(TraceSpan::total_faults)
                .sum::<u64>()
    }

    /// Renders the subtree as a nested JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let attrs: Vec<(String, Value)> = self
            .attrs
            .iter()
            .map(|(k, v)| (k.clone(), Value::String(v.clone())))
            .collect();
        let children: Vec<Value> = self.children.iter().map(TraceSpan::to_json).collect();
        json!({
            "name": self.name,
            "attrs": Value::Object(attrs),
            "duration_ns": self.duration_ns,
            "retries": self.retries,
            "faults": self.faults,
            "children": children,
        })
    }

    /// Renders the subtree as JSONL: one compact JSON object per span,
    /// depth-first, each carrying its slash-joined `path` and `depth`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut String::new(), 0, &mut out);
        out
    }

    fn write_jsonl(&self, path: &mut String, depth: usize, out: &mut String) {
        let parent_len = path.len();
        if depth > 0 {
            path.push('/');
        }
        path.push_str(&self.name);
        let attrs: Vec<(String, Value)> = self
            .attrs
            .iter()
            .map(|(k, v)| (k.clone(), Value::String(v.clone())))
            .collect();
        let line = json!({
            "path": path.as_str(),
            "depth": depth,
            "name": self.name,
            "duration_ns": self.duration_ns,
            "self_ns": self.self_time_ns(),
            "retries": self.retries,
            "faults": self.faults,
            "attrs": Value::Object(attrs),
        });
        out.push_str(&serde_json::to_string(&line).expect("compact JSON writer is total"));
        out.push('\n');
        for child in &self.children {
            child.write_jsonl(path, depth + 1, out);
        }
        path.truncate(parent_len);
    }
}

/// Builds a [`TraceSpan`] with optional `key = value` attributes:
/// `span!("capture", vm = name, module = module)`. Attribute values are
/// captured by reference through `Display`.
#[macro_export]
macro_rules! span {
    ($name:expr) => { $crate::TraceSpan::new($name) };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::TraceSpan::new($name)$(.with_attr(stringify!($key), &$val))+
    };
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

/// A minimal JSON-schema validator covering the subset CI's metrics gate
/// needs: `type` (string or list), `required`, `properties`, `items` and
/// `additionalProperties` (as a schema).
pub mod schema {
    use serde_json::Value;

    /// Validates `value` against `schema`, returning every violation found.
    ///
    /// # Errors
    ///
    /// Returns the list of violations, each prefixed with a `/`-joined path
    /// into the document.
    pub fn validate(value: &Value, schema: &Value) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        validate_at(value, schema, "$", &mut errors);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    fn validate_at(value: &Value, schema: &Value, path: &str, errors: &mut Vec<String>) {
        if let Some(ty) = schema.get("type") {
            let allowed: Vec<&str> = match ty {
                Value::String(s) => vec![s.as_str()],
                Value::Array(list) => list.iter().filter_map(Value::as_str).collect(),
                _ => Vec::new(),
            };
            if !allowed.iter().any(|t| type_matches(value, t)) {
                errors.push(format!("{path}: expected type {allowed:?}"));
                return;
            }
        }
        if let Some(required) = schema.get("required").and_then(Value::as_array) {
            for name in required.iter().filter_map(Value::as_str) {
                if value.get(name).is_none() {
                    errors.push(format!("{path}: missing required key \"{name}\""));
                }
            }
        }
        if let Some(pairs) = value.as_object() {
            let props = schema.get("properties");
            let additional = schema.get("additionalProperties");
            for (key, child) in pairs {
                let child_path = format!("{path}/{key}");
                if let Some(sub) = props.and_then(|p| p.get(key)) {
                    validate_at(child, sub, &child_path, errors);
                } else if let Some(extra) = additional {
                    match extra {
                        Value::Bool(false) => {
                            errors.push(format!("{path}: unexpected key \"{key}\""));
                        }
                        Value::Object(_) => validate_at(child, extra, &child_path, errors),
                        _ => {}
                    }
                }
            }
        }
        if let (Some(elems), Some(items)) = (value.as_array(), schema.get("items")) {
            for (i, elem) in elems.iter().enumerate() {
                validate_at(elem, items, &format!("{path}/{i}"), errors);
            }
        }
    }

    fn type_matches(value: &Value, ty: &str) -> bool {
        match ty {
            "null" => value.is_null(),
            "boolean" => value.as_bool().is_some(),
            "integer" => value.as_i64().is_some(),
            "number" => value.as_f64().is_some(),
            "string" => value.as_str().is_some(),
            "array" => value.as_array().is_some(),
            "object" => value.as_object().is_some(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.counter("vmi_reads_total"), 0);
        reg.counter_add("vmi_reads_total", 3);
        reg.counter_add("vmi_reads_total", 2);
        assert_eq!(reg.counter("vmi_reads_total"), 5);
        assert!(!reg.is_empty());
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let mut h = Histogram::with_bounds(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets[0], (1.0, 1));
        assert_eq!(buckets[1], (10.0, 2));
        assert_eq!(buckets[2].1, 3);
        assert!(buckets[2].0.is_infinite());
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 105.5).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 1);
        a.gauge_set("g", 1.0);
        a.observe("h", 2.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 2);
        b.gauge_set("g", 7.0);
        b.observe("h", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(7.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn exports_are_sorted_and_well_formed() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("z_total", 1);
        reg.counter_add("a_total", 2);
        reg.gauge_set("mid_ms", 1.5);
        reg.observe("lat_ms", 0.2);
        let text = reg.to_prometheus_text();
        let a_pos = text.find("a_total 2").unwrap();
        let z_pos = text.find("z_total 1").unwrap();
        assert!(a_pos < z_pos);
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_ms_count 1"));
        for line in text.lines() {
            assert!(is_valid_prometheus_line(line), "bad line: {line}");
        }
        let doc = reg.to_json();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("a_total"))
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("mid_ms"))
                .and_then(Value::as_f64),
            Some(1.5)
        );
    }

    #[test]
    fn prometheus_line_checker_rejects_malformed_lines() {
        assert!(is_valid_prometheus_line("scan_total_ms 12.5"));
        assert!(is_valid_prometheus_line("lat_bucket{le=\"0.5\"} 3"));
        assert!(is_valid_prometheus_line("# TYPE x counter"));
        assert!(!is_valid_prometheus_line("9starts_with_digit 1"));
        assert!(!is_valid_prometheus_line("name_only"));
        assert!(!is_valid_prometheus_line("bad{le=0.5} 3"));
        assert!(!is_valid_prometheus_line("name not_a_number"));
    }

    #[test]
    fn span_macro_builds_attributed_spans() {
        let vm = "dom1";
        let s = span!("capture", vm = vm, module = "hal.dll").with_duration_ns(42);
        assert_eq!(s.name, "capture");
        assert_eq!(s.attrs[0], ("vm".to_string(), "dom1".to_string()));
        assert_eq!(s.attrs[1].1, "hal.dll");
        assert_eq!(s.duration_ns, 42);
    }

    #[test]
    fn span_tree_accounting_identity_holds() {
        let mut root = span!("check_pool").with_duration_ns(100);
        root.push(span!("capture").with_duration_ns(60).with_retries(2));
        root.push(span!("vote").with_duration_ns(30).with_faults(1));
        assert_eq!(root.children_total_ns(), 90);
        assert_eq!(root.self_time_ns(), 10);
        assert_eq!(root.total_retries(), 2);
        assert_eq!(root.total_faults(), 1);
    }

    #[test]
    fn jsonl_emits_one_parseable_line_per_span_with_paths() {
        let mut root = span!("check_pool", module = "hal.dll").with_duration_ns(10);
        let mut capture = span!("capture", vm = "dom1").with_duration_ns(8);
        capture.push(span!("parse").with_duration_ns(3));
        root.push(capture);
        let jsonl = root.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        let parsed: Vec<Value> = lines
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(
            parsed[0].get("path").and_then(Value::as_str),
            Some("check_pool")
        );
        assert_eq!(
            parsed[2].get("path").and_then(Value::as_str),
            Some("check_pool/capture/parse")
        );
        assert_eq!(parsed[1].get("depth").and_then(Value::as_i64), Some(1));
        assert_eq!(parsed[0].get("self_ns").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn schema_validator_accepts_and_rejects() {
        let schema = serde_json::from_str(
            r#"{
                "type": "object",
                "required": ["counters"],
                "properties": {
                    "counters": {
                        "type": "object",
                        "additionalProperties": {"type": "integer"}
                    },
                    "note": {"type": ["string", "null"]}
                }
            }"#,
        )
        .unwrap();
        let good = serde_json::from_str(r#"{"counters": {"x": 1}, "note": null}"#).unwrap();
        assert!(schema::validate(&good, &schema).is_ok());
        let bad = serde_json::from_str(r#"{"counters": {"x": 1.5}}"#).unwrap();
        let errors = schema::validate(&bad, &schema).unwrap_err();
        assert!(errors[0].contains("$/counters/x"), "{errors:?}");
        let missing = serde_json::from_str(r#"{"note": "hi"}"#).unwrap();
        assert!(schema::validate(&missing, &schema).is_err());
    }

    #[test]
    fn registry_json_round_trips_through_the_parser() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("reads_total", 7);
        reg.gauge_set("slowdown", 1.25);
        reg.observe("capture_ms", 3.0);
        let doc = reg.to_json();
        let pretty = serde_json::to_string_pretty(&doc).unwrap();
        assert_eq!(serde_json::from_str(&pretty).unwrap(), doc);
    }
}
