//! Output: the named metrics, the run metadata line, and the result
//! line the benchmark prints last.

use std::fmt::Write as _;

use crate::tally::Tally;

/// Named metrics in print order, each with its unit.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Appends `name`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// Names whose value is not a finite number (JSON cannot carry
    /// them; each one makes the run incorrect).
    #[must_use]
    pub fn non_finite(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }

    /// The `metrics` JSON object. Values print with every digit
    /// (`f64` shortest round-trip form); non-finite values print as 0.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let correct = tally.correct() && metrics.non_finite().is_empty();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted(),
        tally.failed(),
        metrics.to_json()
    )
}

/// Run metadata, printed as one `{"meta": {...}}` line before the
/// result: string and number fields in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Meta {
    fields: Vec<(String, String)>,
}

impl Meta {
    /// An empty record.
    #[must_use]
    pub fn new() -> Self {
        Meta::default()
    }

    /// Adds a string field.
    pub fn text(&mut self, key: &str, value: &str) {
        self.fields.push((key.to_string(), json_string(value)));
    }

    /// Adds a numeric field.
    pub fn num(&mut self, key: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.fields.push((key.to_string(), value.to_string()));
    }

    /// Adds a field whose value is already JSON.
    pub fn raw(&mut self, key: &str, json: String) {
        self.fields.push((key.to_string(), json));
    }

    /// The `{"meta": {...}}` line.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"meta\": {{{}}}}}", body.join(", "))
    }
}

/// A JSON string literal for `s`.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a (64-bit) digest of `bytes`, as 16 hex digits — the key the
/// fleet oracle's output is compared by.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}
