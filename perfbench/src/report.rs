//! Run results: metrics, the host/settings fingerprint, the printed table
//! and the one-line JSON verdict.

use serde_json::Value;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `ttft_p50_ms`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Samples the value was computed from, when it is a statistic.
    pub samples: Option<usize>,
    /// Whether the machine-readable JSON line carries it (some per-layer
    /// numbers exist only on the workloads that exercise their layer and
    /// are printed in the table alone).
    pub exported: bool,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted in the timed window (plus replayed ones in a
    /// traced run).
    pub attempted: usize,
    /// Failed, refused or wrong-output requests, and invariant breaches.
    pub failed: usize,
    /// Human-readable reasons for every failure counted.
    pub failures: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Host and settings fingerprint as (key, value) pairs.
    pub fingerprint: Vec<(String, String)>,
    /// Free-form lines printed under the table (e.g. the measured vs
    /// predicted comparison).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds an exported metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            exported: true,
        });
    }

    /// Adds a metric shown in the table only.
    pub fn push_local(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.push(name, value, unit, samples);
        self.metrics.last_mut().expect("just pushed").exported = false;
    }

    /// Counts one failure with its reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        self.failures.push(reason.into());
    }

    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(reason());
        }
    }

    /// Whether every output matched and every invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Adds a fingerprint entry.
    pub fn fingerprint(&mut self, key: &str, value: impl ToString) {
        self.fingerprint.push((key.to_string(), value.to_string()));
    }

    /// Prints the table and notes (everything before the JSON line).
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for (k, v) in &self.fingerprint {
            println!("   {k:<24} {v}");
        }
        println!(
            "   {:<28} {:>14}  {:<10} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| n.to_string());
            let mark = if m.exported { "" } else { "  (table only)" };
            println!(
                "   {:<28} {:>14.6}  {:<10} {:>8}{mark}",
                m.name, m.value, m.unit, samples
            );
        }
        for note in &self.notes {
            println!("   {note}");
        }
        println!(
            "   attempted {} failed {} failed_ratio {:.4}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in self.failures.iter().take(20) {
            println!("   FAILURE: {f}");
        }
    }

    /// The machine-readable verdict line.
    pub fn verdict_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.exported)
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::String(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            (
                "attempted".into(),
                Value::Int(self.attempted.max(1) as i128),
            ),
            ("failed".into(), Value::Int(self.failed as i128)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_string_compact()
    }

    /// The full record written next to the run: fingerprint, every metric
    /// with its sample count, and the failures.
    pub fn record_json(&self, workload: &str, seed: u64, trace: bool) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::String(m.unit.into())),
                        (
                            "samples".into(),
                            m.samples.map_or(Value::Null, |n| Value::Int(n as i128)),
                        ),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::String(workload.into())),
            ("seed".into(), Value::Int(seed.into())),
            ("trace".into(), Value::Bool(trace)),
            (
                "fingerprint".into(),
                Value::Object(
                    self.fingerprint
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                        .collect(),
                ),
            ),
            ("attempted".into(), Value::Int(self.attempted as i128)),
            ("failed".into(), Value::Int(self.failed as i128)),
            (
                "failures".into(),
                Value::Array(
                    self.failures
                        .iter()
                        .map(|f| Value::String(f.clone()))
                        .collect(),
                ),
            ),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

/// Fingerprint keys that describe the benchmark's inputs rather than the
/// host or code; they legitimately differ between compared runs.
const RUN_KEYS: [&str; 1] = ["seed"];

/// Fingerprint keys that identify the measured code. Comparing a parent
/// with a change is the point of `compare`, so a difference here is
/// printed but is not a mismatch.
const CODE_KEYS: [&str; 2] = ["git_commit", "source_hash"];

/// How two fingerprints differ.
#[derive(Debug, Default, PartialEq)]
pub struct FingerprintDiff {
    /// Host and settings keys that differ (`key: a vs b`); any makes the
    /// comparison one between different setups.
    pub mismatches: Vec<String>,
    /// Code keys that differ (`key: a vs b`).
    pub code: Vec<String>,
}

/// Compares two fingerprints key by key, ignoring [`RUN_KEYS`] and
/// keeping [`CODE_KEYS`] apart from the mismatches.
pub fn fingerprint_diff(a: &[(String, Value)], b: &[(String, Value)]) -> FingerprintDiff {
    let mut diff = FingerprintDiff::default();
    let keys = a.iter().chain(b).map(|(k, _)| k.as_str());
    let mut seen: Vec<&str> = Vec::new();
    for key in keys {
        if seen.contains(&key) || RUN_KEYS.contains(&key) {
            continue;
        }
        seen.push(key);
        let get = |f: &[(String, Value)]| f.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        let (va, vb) = (get(a), get(b));
        if va == vb {
            continue;
        }
        let show = |v: Option<Value>| v.map_or("(absent)".to_string(), |v| v.to_string_compact());
        let line = format!("{key}: {} vs {}", show(va), show(vb));
        if CODE_KEYS.contains(&key) {
            diff.code.push(line);
        } else {
            diff.mismatches.push(line);
        }
    }
    diff
}

/// Compares two records written by runs of the benchmark: prints every
/// metric side by side, and flags — never silently ignores — any host or
/// settings difference. Returns whether those matched.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let field = |v: &Value, key: &str| -> Option<Value> {
        match v {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
            _ => None,
        }
    };
    let pairs = |v: Option<Value>| match v {
        Some(Value::Object(p)) => p,
        _ => Vec::new(),
    };
    let diff = fingerprint_diff(
        &pairs(field(&a, "fingerprint")),
        &pairs(field(&b, "fingerprint")),
    );
    for line in &diff.code {
        println!("code {line}");
    }
    for line in &diff.mismatches {
        println!("FINGERPRINT MISMATCH {line}");
    }
    let value = |m: &Value| match field(m, "value") {
        Some(Value::Float(x)) => Some(x),
        Some(Value::Int(i)) => Some(i as f64),
        _ => None,
    };
    let mb = pairs(field(&b, "metrics"));
    println!("{:<28} {:>14} {:>14} {:>9}", "metric", "a", "b", "b/a-1");
    for (name, ma) in pairs(field(&a, "metrics")) {
        let Some(x) = value(&ma) else { continue };
        let y = mb
            .iter()
            .find(|(k, _)| *k == name)
            .and_then(|(_, m)| value(m));
        match y {
            Some(y) if x != 0.0 => println!("{name:<28} {x:>14.6} {y:>14.6} {:>+9.4}", y / x - 1.0),
            Some(y) => println!("{name:<28} {x:>14.6} {y:>14.6} {:>9}", "-"),
            None => println!("{name:<28} {x:>14.6} {:>14} {:>9}", "(absent)", "-"),
        }
    }
    let same = diff.mismatches.is_empty();
    if !same {
        println!("fingerprints differ: the comparison above is between different setups");
    }
    Ok(same)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_line_has_exactly_the_four_keys_and_exported_metrics_only() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push("ttft_p50_ms", 1.5, "ms", Some(3));
        r.push_local("serving.step_ms_p50", 2.0, "ms", Some(9));
        let line = r.verdict_json();
        let v: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(pairs) = v else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("ttft_p50_ms"));
        assert!(!line.contains("serving.step_ms_p50"));
        r.fail("mismatch");
        assert!(!r.correct());
    }

    fn fp(pairs: &[(&str, &str)]) -> Vec<(String, Value)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Value::String(v.to_string())))
            .collect()
    }

    #[test]
    fn a_commit_difference_is_not_a_fingerprint_mismatch() {
        let parent = fp(&[
            ("nproc", "2"),
            ("seed", "1"),
            ("git_commit", "aaa"),
            ("source_hash", "h1"),
        ]);
        let change = fp(&[
            ("nproc", "2"),
            ("seed", "2"),
            ("git_commit", "bbb"),
            ("source_hash", "h2"),
        ]);
        let diff = fingerprint_diff(&parent, &change);
        assert!(diff.mismatches.is_empty(), "{diff:?}");
        assert_eq!(diff.code.len(), 2);
        assert_eq!(
            fingerprint_diff(&parent, &parent),
            FingerprintDiff::default()
        );
    }

    #[test]
    fn host_and_settings_differences_are_mismatches() {
        let a = fp(&[
            ("nproc", "2"),
            ("kernel_threads", "2"),
            ("rate_per_s", "2.5"),
        ]);
        let b = fp(&[("nproc", "4"), ("kernel_threads", "2")]);
        let diff = fingerprint_diff(&a, &b);
        assert_eq!(
            diff.mismatches,
            ["nproc: \"2\" vs \"4\"", "rate_per_s: \"2.5\" vs (absent)"]
        );
        assert!(diff.code.is_empty());
    }
}
