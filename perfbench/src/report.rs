//! What a run prints: the metrics, the operation tally and the run record.

use crate::stats::{self, Tail};
use std::collections::BTreeMap;

/// A JSON value, rendered by hand (the workspace has no serde).
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn render(&self) -> String {
        match self {
            Json::Bool(b) => b.to_string(),
            Json::Num(v) if v.is_finite() => format!("{v}"),
            Json::Num(_) => "null".to_string(),
            Json::Int(v) => v.to_string(),
            Json::Str(s) => quote(s),
            Json::Arr(items) => {
                let parts: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", parts.join(", "))
            }
            Json::Obj(fields) => {
                let parts: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.render()))
                    .collect();
                format!("{{{}}}", parts.join(", "))
            }
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Metric values by name, each with its unit.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|(name, (value, unit))| {
                    let obj = Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str(unit.to_string())),
                    ]);
                    (name.clone(), obj)
                })
                .collect(),
        )
    }
}

/// Operations attempted and failed, plus a note for every failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failed one carries `note`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(note());
            }
        }
    }

    /// Counts the outcome of a fallible call and returns its value.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// The run record: everything needed to interpret and reproduce a result.
#[derive(Default)]
pub struct Record {
    fields: Vec<(String, Json)>,
}

impl Record {
    pub fn set(&mut self, key: &str, value: Json) {
        self.fields.retain(|(k, _)| k != key);
        self.fields.push((key.to_string(), value));
    }

    /// Records a segment's sub-object under `key`.
    pub fn section(&mut self, key: &str, fields: Vec<(&str, Json)>) {
        let obj = fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        self.set(key, Json::Obj(obj));
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(self.fields.clone())
    }
}

/// Puts the median of `samples` (seconds) as `name`, scaled to `unit`.
pub fn put_median(m: &mut Metrics, name: &str, samples: &[f64], unit: &'static str) {
    if !samples.is_empty() {
        m.put(name, stats::median(samples) * scale(unit), unit);
    }
}

/// Puts the tail of `samples` (seconds) as `name`; returns where it
/// resolved, for the run record.
pub fn put_tail(m: &mut Metrics, name: &str, samples: &[f64], unit: &'static str) -> Json {
    match stats::tail(samples) {
        Some(Tail {
            value,
            percentile,
            beyond,
        }) => {
            m.put(name, value * scale(unit), unit);
            Json::Obj(vec![
                ("percentile".into(), Json::Int(percentile.into())),
                ("samples".into(), Json::Int(samples.len() as u64)),
                ("beyond".into(), Json::Int(beyond as u64)),
            ])
        }
        None => Json::Str(format!("unresolved: {} samples", samples.len())),
    }
}

fn scale(unit: &str) -> f64 {
    match unit {
        "ms" => 1e3,
        _ => 1.0,
    }
}
